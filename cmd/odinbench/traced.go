package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"odin/internal/core"
	"odin/internal/decache"
	"odin/internal/dnn"
	"odin/internal/experiments"
	"odin/internal/mlp"
	"odin/internal/obs"
	"odin/internal/par"
	"odin/internal/policy"
	"odin/internal/serve"
)

// Host-span names: one per public call the benchmark times. The per-layer
// metrics are sums (or quantiles) over these spans.
const (
	spanOp        = "op"
	spanModel     = "fig8.model"
	spanByName    = "dnn.ByName"
	spanPrepare   = "core.Prepare"
	spanPolicyNew = "policy.New"
	spanNewCtrl   = "core.NewController"
	spanBaseline  = "core.NewBaseline"
	spanBaseHor   = "core.SimulateHorizon/baseline"
	spanOdinHor   = "core.SimulateHorizon/odin"
	spanBootstrap = "core.BootstrapPolicy"
	spanDecide    = "core.RunBatch/decide"
	spanUpdate    = "core.RunBatch/update"
	spanReprogram = "core.Reprogram"
	spanTrain     = "policy.Train"
	spanPredict   = "policy.Predict"
	spanDecideRB  = "core.DecisionBench/rb"
	spanCacheHit  = "core.DecisionBench/hit"
)

// hostTrace records host-time spans (clock.NewReal) around public calls.
// A nil *hostTrace times nothing: the untraced re-drive.
type hostTrace struct {
	b    *bench
	tr   *obs.Tracer
	root *obs.Span
}

func (b *bench) newHostTrace() *hostTrace {
	tr := obs.New(b.clk)
	return &hostTrace{b: b, tr: tr, root: tr.Start(spanOp, nil)}
}

// call times fn as a span named name under parent (the op root when nil).
func (h *hostTrace) call(name string, track int, parent *obs.Span, fn func()) {
	if h == nil {
		fn()
		return
	}
	if parent == nil {
		parent = h.root
	}
	s := h.b.now()
	fn()
	h.tr.At(name, track, s, h.b.now(), parent)
}

// group opens a grouping span (ended by the caller) under the op root.
func (h *hostTrace) group(name string, track int) *obs.Span {
	if h == nil {
		return nil
	}
	s := h.tr.Start(name, h.root)
	s.SetTrack(track)
	return s
}

// flame indexes the flame summary by span name.
func (h *hostTrace) flame() map[string]obs.FlameRow {
	rows := map[string]obs.FlameRow{}
	for _, r := range h.tr.FlameSummary() {
		rows[r.Name] = r
	}
	return rows
}

// finish closes the op root and writes the Chrome trace.
func (h *hostTrace) finish() error {
	h.root.End()
	path := h.b.opts.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "traces",
			fmt.Sprintf("trace-%s-%d.json", h.b.opts.workload, h.b.opts.seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := h.tr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	h.b.logf("trace: %d host spans written to %s", h.tr.Len(), path)
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// perLayerZero lists every per-layer metric with its unit; a workload's
// traced run overwrites the ones its layers produce, and the rest read 0
// (the layer does not run on that workload).
var perLayerZero = []struct{ name, unit string }{
	{"dnn.byname_s", "s"}, {"core.prepare_s", "s"}, {"core.new_controller_s", "s"},
	{"core.bootstrap_s", "s"}, {"core.bootstraps", "count"}, {"core.bootstrap_keys", "count"},
	{"core.odin_horizon_s", "s"}, {"core.baseline_horizon_s", "s"}, {"core.odin_policy_updates", "count"},
	{"mlp.train_ms", "ms"}, {"mlp.train_allocs", "count"},
	{"policy.predict_ns", "ns"}, {"policy.predict_allocs", "count"},
	{"opt.decide_rb_us", "us"}, {"decache.hit_us", "us"},
	{"core.run_decide_us", "us"}, {"core.run_decide_tail_us", "us"}, {"core.run_decide_tail_pct", "pct"},
	{"core.run_update_us", "us"}, {"core.run_update_tail_us", "us"}, {"core.run_update_tail_pct", "pct"},
	{"core.runs", "count"}, {"core.policy_updates", "count"}, {"core.reprogram_passes", "count"},
	{"serve.self_s", "s"}, {"serve.batches", "count"}, {"serve.batch_size_mean", "count"},
	{"serve.maintenance_passes", "count"},
	{"decache.decision_hit_ratio", "share"}, {"decache.decision_lookups", "count"},
	{"decache.predict_hit_ratio", "share"}, {"decache.predict_lookups", "count"},
	{"obs.sinks_s", "s"}, {"trace.overhead_s", "s"}, {"learning_share", "share"},
}

func (b *bench) initPerLayer() {
	for _, m := range perLayerZero {
		b.set(m.name, 0, m.unit)
	}
}

// setCache reports a decision cache's hit ratios with their lookup counts.
func (b *bench) setCache(c decache.Counters) {
	ratio := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	b.set("decache.decision_hit_ratio", ratio(c.DecisionHits, c.DecisionMisses), "share")
	b.set("decache.decision_lookups", float64(c.DecisionHits+c.DecisionMisses), "count")
	b.set("decache.predict_hit_ratio", ratio(c.PredictHits, c.PredictMisses), "share")
	b.set("decache.predict_lookups", float64(c.PredictHits+c.PredictMisses), "count")
}

func addCounters(a, c decache.Counters) decache.Counters {
	a.DecisionHits += c.DecisionHits
	a.DecisionMisses += c.DecisionMisses
	a.PredictHits += c.PredictHits
	a.PredictMisses += c.PredictMisses
	return a
}

// setBringUp reports the chip/workload bring-up sums.
func (b *bench) setBringUp(fl map[string]obs.FlameRow) {
	b.set("dnn.byname_s", fl[spanByName].Total, "s")
	b.set("core.prepare_s", fl[spanPrepare].Total, "s")
	b.set("core.new_controller_s", fl[spanNewCtrl].Total+fl[spanPolicyNew].Total, "s")
}

// callTime sums the self time of the re-drive's call spans (not the root,
// grouping or micro-slice spans): the host time the re-drive spent inside
// public calls.
func callTime(fl map[string]obs.FlameRow) float64 {
	names := make([]string, 0, len(fl))
	for name := range fl {
		names = append(names, name)
	}
	sort.Strings(names)
	var s float64
	for _, name := range names {
		switch name {
		case spanOp, spanModel, spanTrain, spanPredict, spanDecideRB, spanCacheHit:
		default:
			s += fl[name].Self
		}
	}
	return s
}

// microbenches times the per-layer slices that do not depend on the
// workload: one line-11 policy update (50 examples, 100 epochs), a policy
// prediction, and one line-6 decision uncached and cache-hit.
func (b *bench) microbenches(h *hostTrace) error {
	sys := core.DefaultSystem()
	m, err := dnn.ByName(model)
	if err != nil {
		return err
	}
	bc := core.DefaultBootstrapConfig()
	bc.MaxExamples = 50
	ex, err := core.CollectExamples(sys, []*dnn.Model{m}, bc)
	if err != nil {
		return err
	}
	wl, err := sys.Prepare(m)
	if err != nil {
		return err
	}

	const trainReps = 5
	var trainS, trainAllocs []float64
	for i := 0; i < trainReps; i++ {
		pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: 1})
		runtime.GC()
		a := mallocs()
		s := b.now()
		var terr error
		h.call(spanTrain, 0, nil, func() {
			_, terr = pol.Train(ex, mlp.TrainOptions{Epochs: 100, Seed: 1})
		})
		trainS = append(trainS, b.now()-s)
		trainAllocs = append(trainAllocs, float64(mallocs()-a))
		if terr != nil {
			return terr
		}
	}
	b.set("mlp.train_ms", median(trainS)*1e3, "ms")
	b.set("mlp.train_allocs", median(trainAllocs), "count")

	pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: 1})
	const predicts = 20000
	runtime.GC()
	a := mallocs()
	s := b.now()
	h.call(spanPredict, 0, nil, func() {
		for i := 0; i < predicts; i++ {
			pol.Predict(ex[i%len(ex)].F)
		}
	})
	b.set("policy.predict_ns", (b.now()-s)/predicts*1e9, "ns")
	b.set("policy.predict_allocs", float64(mallocs()-a)/predicts, "count")

	// One line-6 decision per layer at a mid-sweep device age, uncached
	// and then from a warm decision cache.
	const decideReps = 200
	decide := func(name string, opts core.ControllerOptions) (float64, error) {
		var fns []func()
		for j := 0; j < wl.Layers(); j++ {
			fn, err := core.DecisionBench(sys, wl, pol, opts, j, 1e3)
			if err != nil {
				return 0, err
			}
			fn() // populate the cache when one is configured
			fns = append(fns, fn)
		}
		s := b.now()
		h.call(name, 0, nil, func() {
			for i := 0; i < decideReps; i++ {
				for _, fn := range fns {
					fn()
				}
			}
		})
		return (b.now() - s) / float64(decideReps*len(fns)), nil
	}
	rb, err := decide(spanDecideRB, core.ControllerOptions{DisableDecisionCache: true})
	if err != nil {
		return err
	}
	hit, err := decide(spanCacheHit, core.ControllerOptions{Cache: decache.New()})
	if err != nil {
		return err
	}
	b.set("opt.decide_rb_us", rb*1e6, "us")
	b.set("decache.hit_us", hit*1e6, "us")
	return nil
}

// fig8Stats are the re-drive's counts.
type fig8Stats struct {
	bootstraps  int
	keys        int
	odinUpdates int
	cache       decache.Counters
}

// redriveFig8 computes Fig. 8 through public calls, step for step as
// experiments.Fig8 does, timing each call as a host span when h is set.
// Rendering its result must reproduce the experiment's bytes (pinned).
func redriveFig8(p fig8Plan, h *hostTrace) (experiments.Fig8Result, fig8Stats, error) {
	sys := core.DefaultSystem()
	res := experiments.Fig8Result{MeanReduction: map[string]float64{}}
	baselines := core.StandardBaselineSizes()
	rows := make([]experiments.Fig8Row, len(p.models))
	updates := make([]int, len(p.models))
	caches := make([]decache.Counters, len(p.models))
	err := par.ForEach(0, len(p.models), func(i int) error {
		grp := h.group(spanModel, i)
		defer grp.End()
		var err error
		prepare := func(name string) (wl *core.Workload) {
			var m *dnn.Model
			h.call(spanByName, i, grp, func() { m, err = dnn.ByName(name) })
			if err != nil {
				return nil
			}
			h.call(spanPrepare, i, grp, func() { wl, err = sys.Prepare(m) })
			return wl
		}
		name := p.models[i]
		row := experiments.Fig8Row{EDP: map[string]float64{}, ReductionVsOdin: map[string]float64{}}
		var norm float64
		for bi, size := range baselines {
			wl := prepare(name)
			if err != nil {
				return err
			}
			row.Workload, row.Dataset = wl.Model.Name, wl.Model.Dataset.Name
			var bl *core.Baseline
			h.call(spanBaseline, i, grp, func() { bl, err = core.NewBaseline(sys, wl, size) })
			if err != nil {
				return err
			}
			var sum core.HorizonSummary
			h.call(spanBaseHor, i, grp, func() { sum = core.SimulateHorizon(bl, p.horizon) })
			if bi == 0 {
				norm = sum.InferenceEDP()
			}
			row.EDP[size.String()] = sum.TotalEDP() / norm
		}
		var pol *policy.Policy
		h.call(spanBootstrap, i, grp, func() {
			known := core.LeaveOut(dnn.AllWorkloads(), familyOf(name))
			pol, _, err = core.BootstrapPolicy(sys, known, p.bootstrap)
		})
		if err != nil {
			return err
		}
		wl := prepare(name)
		if err != nil {
			return err
		}
		var ctrl *core.Controller
		h.call(spanNewCtrl, i, grp, func() { ctrl, err = core.NewController(sys, wl, pol, core.DefaultControllerOptions()) })
		if err != nil {
			return err
		}
		var odin core.HorizonSummary
		h.call(spanOdinHor, i, grp, func() { odin = core.SimulateHorizon(ctrl, p.horizon) })
		row.EDP["Odin"] = odin.TotalEDP() / norm
		for _, size := range baselines {
			row.ReductionVsOdin[size.String()] = row.EDP[size.String()] / row.EDP["Odin"]
		}
		rows[i], updates[i] = row, ctrl.PolicyUpdates()
		if c := ctrl.DecisionCache(); c != nil {
			caches[i] = c.Counters()
		}
		return nil
	})
	if err != nil {
		return res, fig8Stats{}, err
	}
	st := fig8Stats{bootstraps: len(p.models)}
	keys := map[string]bool{}
	for i, row := range rows {
		for _, size := range baselines {
			red := row.ReductionVsOdin[size.String()]
			res.MeanReduction[size.String()] += red
			if red > res.MaxReduction {
				res.MaxReduction = red
			}
		}
		res.Rows = append(res.Rows, row)
		keys[familyOf(p.models[i])] = true
		st.odinUpdates += updates[i]
		st.cache = addCounters(st.cache, caches[i])
	}
	for _, size := range baselines {
		res.MeanReduction[size.String()] /= float64(len(res.Rows))
	}
	st.keys = len(keys)
	return res, st, nil
}

func fig8Traced(b *bench) error {
	b.initPerLayer()
	p := b.plan()

	// Untraced op first: the end-to-end experiment and its wall time.
	runtime.GC()
	s := b.now()
	_, table, err := fig8Op(p, b.opts.tiny)
	if err != nil {
		return err
	}
	untraced := b.now() - s
	b.judge(b.pinProblem(fig8PinKey(b.opts.tiny), fnv64(table), true))

	h := b.newHostTrace()
	runtime.GC()
	s = b.now()
	res, st, err := redriveFig8(p, h)
	if err != nil {
		return err
	}
	traced := b.now() - s
	var buf bytes.Buffer
	res.Render(&buf)
	var problem string
	if got := fnv64(buf.Bytes()); got != fnv64(table) {
		problem = fmt.Sprintf("fig8 re-drive rendered %s, the experiment %s", hex(got), hex(fnv64(table)))
	}
	b.judge(problem)
	if err := b.microbenches(h); err != nil {
		return err
	}
	fl := h.flame()
	b.setBringUp(fl)
	b.set("core.bootstrap_s", fl[spanBootstrap].Total, "s")
	b.set("core.bootstraps", float64(st.bootstraps), "count")
	b.set("core.bootstrap_keys", float64(st.keys), "count")
	b.set("core.odin_horizon_s", fl[spanOdinHor].Total, "s")
	b.set("core.baseline_horizon_s", fl[spanBaseHor].Total, "s")
	b.set("core.odin_policy_updates", float64(st.odinUpdates), "count")
	b.setCache(st.cache)
	b.set("trace.overhead_s", traced-untraced, "s")
	// Learning: the offline bootstraps plus the online updates, each
	// update costed at the measured line-11 Train.
	learning := fl[spanBootstrap].Total + float64(st.odinUpdates)*b.res.Metrics["mlp.train_ms"].Value/1e3
	work := callTime(fl)
	b.set("learning_share", learning/work, "share")
	b.logf("traced: experiment %.3fs untraced, re-drive %.3fs traced (overhead %.3fs); learning %.3fs of %.3fs call time",
		untraced, traced, traced-untraced, learning, work)
	return h.finish()
}

// chromeEvent is the part of a Chrome trace event the schedule needs.
type chromeEvent struct {
	Name string                     `json:"name"`
	Tid  int                        `json:"tid"`
	Ts   float64                    `json:"ts"`
	Args map[string]json.RawMessage `json:"args"`
}

func (e chromeEvent) num(key string) float64 {
	var v float64
	_ = json.Unmarshal(e.Args[key], &v) // absent keys read 0
	return v
}

func (e chromeEvent) str(key string) string {
	var v string
	_ = json.Unmarshal(e.Args[key], &v)
	return v
}

// step is one entry of a chip's recovered schedule: a batch (size > 0,
// riders in request-id order) or a maintenance pass.
type step struct {
	ts     float64 // Chrome-trace timestamp, µs (exact float64 of t·1e6)
	size   int
	riders []uint64
	energy float64 // batch span's energy attribute
}

// schedule recovers every chip's batch and maintenance sequence from the
// replay's virtual-time span dump.
func schedule(dump []byte) (map[int][]step, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(dump, &doc); err != nil {
		return nil, err
	}
	batches := map[int]*step{} // by span id
	tids := map[int]int{}      // batch span id -> chip
	out := map[int][]step{}
	var order []int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "batch":
			id := int(e.num("span"))
			batches[id] = &step{ts: e.Ts, size: int(e.num("size")), energy: e.num("energy")}
			tids[id] = e.Tid
			order = append(order, id)
		case e.Name == "reprogram" && e.str("cause") == "maintenance":
			out[e.Tid] = append(out[e.Tid], step{ts: e.Ts})
		}
	}
	// Request spans are exported in start (arrival) order, so they can
	// precede their batch: attach riders in a second pass.
	for _, e := range doc.TraceEvents {
		if bt := batches[int(e.num("parent"))]; e.Name == "request" && bt != nil {
			bt.riders = append(bt.riders, uint64(e.num("request")))
		}
	}
	for _, id := range order {
		bt := batches[id]
		if len(bt.riders) != bt.size {
			return nil, fmt.Errorf("batch span %d: %d request spans for size %d", id, len(bt.riders), bt.size)
		}
		sort.Slice(bt.riders, func(i, j int) bool { return bt.riders[i] < bt.riders[j] })
		out[tids[id]] = append(out[tids[id]], *bt)
	}
	for chip := range out {
		st := out[chip]
		// Maintenance at t precedes a batch starting at t: it needs an
		// idle chip with an empty queue.
		sort.SliceStable(st, func(i, j int) bool {
			if st[i].ts < st[j].ts || st[j].ts < st[i].ts {
				return st[i].ts < st[j].ts
			}
			return st[i].size == 0 && st[j].size != 0
		})
	}
	return out, nil
}

// sameBits reports bit-for-bit equality: the re-drive must reproduce the
// replay exactly, not within a tolerance.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// redriveStats are the re-drive's per-layer counts.
type redriveStats struct {
	runs, updates, reprograms int
	decide, update            []float64 // RunBatch host seconds
	ctrlTime                  float64   // Σ RunBatch + Reprogram host time
}

// redrive rebuilds every chip's controller with its seed and a shared
// decision cache, drives it through the recovered schedule with RunBatch
// and Reprogram, and checks each batch's Sizes/Energy against the replay
// bit for bit. It returns the number of mismatching batches.
func (b *bench) redrive(in replayInputs, sched map[int][]step, res serve.ReplayResult, h *hostTrace) (redriveStats, int, error) {
	var st redriveStats
	sys := core.DefaultSystem()
	cache := decache.New()
	bad := 0
	for id, cc := range in.chips {
		var (
			m   *dnn.Model
			wl  *core.Workload
			pol *policy.Policy
			ctl *core.Controller
			err error
		)
		h.call(spanByName, id, nil, func() { m, err = dnn.ByName(cc.Model) })
		if err != nil {
			return st, 0, err
		}
		h.call(spanPrepare, id, nil, func() { wl, err = sys.Prepare(m) })
		if err != nil {
			return st, 0, err
		}
		h.call(spanPolicyNew, id, nil, func() { pol = policy.New(policy.Config{Grid: sys.Grid(), Seed: cc.Seed}) })
		opts := core.ControllerOptions{Cache: cache, TrainSeed: cc.Seed, ProgrammedAt: cc.ProgrammedAt}
		h.call(spanNewCtrl, id, nil, func() { ctl, err = core.NewController(sys, wl, pol, opts) })
		if err != nil {
			return st, 0, err
		}

		freeAt := 0.0
		for _, sp := range sched[id] {
			if sp.size == 0 {
				// Maintenance runs at an arrival instant.
				i := sort.Search(len(in.trace), func(i int) bool { return in.trace[i].Time*1e6 >= sp.ts })
				if i == len(in.trace) || !sameBits(in.trace[i].Time*1e6, sp.ts) {
					return st, 0, fmt.Errorf("chip %d: maintenance at ts %v is not an arrival", id, sp.ts)
				}
				t := in.trace[i].Time
				var lat float64
				s := b.now()
				h.call(spanReprogram, id, nil, func() { _, lat = ctl.Reprogram(t) })
				st.ctrlTime += b.now() - s
				st.reprograms++
				freeAt = t + lat
				continue
			}
			// A batch starts when the chip is free and its first rider has
			// arrived: s = max(freeAt, first arrival).
			t := math.Max(freeAt, in.trace[sp.riders[0]].Time)
			if !sameBits(t*1e6, sp.ts) {
				return st, 0, fmt.Errorf("chip %d: batch at ts %v does not start at max(free %v, arrival %v)",
					id, sp.ts, freeAt, in.trace[sp.riders[0]].Time)
			}
			// Timed by hand: the span is named after the call, once it is
			// known whether the batch updated the policy.
			s := b.now()
			rep := ctl.RunBatch(t, sp.size)
			d := b.now() - s
			name := spanDecide
			if rep.PolicyUpdated {
				name = spanUpdate
				st.updates++
				st.update = append(st.update, d)
			} else {
				st.decide = append(st.decide, d)
			}
			if h != nil {
				h.tr.At(name, id, s, s+d, h.root)
			}
			st.ctrlTime += d
			st.runs++
			st.reprograms += rep.ReprogramPasses
			if !sameBatch(rep, sp, res) {
				bad++
			}
			freeAt = t + rep.BatchLatency()
		}
	}
	return st, bad, nil
}

// sameBatch compares a re-driven batch with the replay's responses for
// its riders and its span's energy, bit for bit.
func sameBatch(rep core.BatchReport, sp step, res serve.ReplayResult) bool {
	if !sameBits(rep.BatchEnergy(), sp.energy) {
		return false
	}
	for _, id := range sp.riders {
		r := res.Responses[id]
		if !sameBits(r.Energy, rep.Energy) || len(r.Sizes) != len(rep.Sizes) {
			return false
		}
		for j := range r.Sizes {
			if r.Sizes[j] != rep.Sizes[j] {
				return false
			}
		}
	}
	return true
}

func replayTraced(b *bench, sp replaySpec) error {
	b.initPerLayer()
	in, err := replaySetup(b, sp)
	if err != nil {
		return err
	}
	key := pinKey(sp, b.opts.tiny, b.opts.seed)

	// Untraced replays at workers=1 (serve.self_s's base) and at -workers
	// (the tracing-overhead base), then the span-dump replay.
	timed := func(workers int, dump bool) (outcome, fleet, float64, error) {
		f, err := in.bringUp(workers, sp.sinks, dump)
		if err != nil {
			return outcome{}, f, 0, err
		}
		runtime.GC()
		s := b.now()
		o := f.replay(in.trace)
		return o, f, b.now() - s, nil
	}
	one, _, wallOne, err := timed(1, false)
	if err != nil {
		return err
	}
	b.judge(b.pinProblem(key, one.res.Checksum, false),
		replayProblem(sp, one, one.res.Checksum, "workers=1"))
	many, fm, wallMany, err := timed(b.opts.workers, false)
	if err != nil {
		return err
	}
	b.judge(replayProblem(sp, many, one.res.Checksum, fmt.Sprintf("workers=%d", b.opts.workers)))
	dumped, fd, wallDump, err := timed(b.opts.workers, true)
	if err != nil {
		return err
	}
	b.judge(replayProblem(sp, dumped, one.res.Checksum, "span dump"))

	var dump bytes.Buffer
	if err := fd.spn.WriteChromeTrace(&dump); err != nil {
		return err
	}
	sched, err := schedule(dump.Bytes())
	if err != nil {
		return err
	}
	h := b.newHostTrace()
	st, bad, err := b.redrive(in, sched, dumped.res, h)
	if err != nil {
		return err
	}
	var problem string
	if bad != 0 || st.runs != int(dumped.batches) {
		problem = fmt.Sprintf("re-drive: %d of %d batches differ from the replay (replay ran %d)", bad, st.runs, dumped.batches)
	}
	b.judge(problem)

	// Instrumentation sinks: fresh-fleet replays with the workload's
	// sinks on and off, alternating, medians.
	if sp.sinks {
		var on, off []float64
		for i := 0; i < 5; i++ {
			for _, sinks := range []bool{true, false} {
				f, err := in.bringUp(b.opts.workers, sinks, false)
				if err != nil {
					return err
				}
				runtime.GC()
				s := b.now()
				o := f.replay(in.trace)
				d := b.now() - s
				b.judge(replayProblem(sp, o, one.res.Checksum, fmt.Sprintf("sinks=%t", sinks)))
				if sinks {
					on = append(on, d)
				} else {
					off = append(off, d)
				}
			}
		}
		b.set("obs.sinks_s", median(on)-median(off), "s")
	}

	if err := b.microbenches(h); err != nil {
		return err
	}
	fl := h.flame()
	b.setBringUp(fl)
	decideMed, updateMed := median(st.decide), median(st.update)
	dTail, dPct := tail(st.decide)
	uTail, uPct := tail(st.update)
	b.set("core.run_decide_us", decideMed*1e6, "us")
	b.set("core.run_decide_tail_us", dTail*1e6, "us")
	b.set("core.run_decide_tail_pct", dPct, "pct")
	b.set("core.run_update_us", updateMed*1e6, "us")
	b.set("core.run_update_tail_us", uTail*1e6, "us")
	b.set("core.run_update_tail_pct", uPct, "pct")
	b.set("core.runs", float64(st.runs), "count")
	b.set("core.policy_updates", float64(st.updates), "count")
	b.set("core.reprogram_passes", float64(st.reprograms), "count")
	b.set("serve.self_s", wallOne-st.ctrlTime, "s")
	b.set("serve.batches", float64(many.batches), "count")
	b.set("serve.batch_size_mean", float64(many.res.Admitted)/float64(many.batches), "count")
	b.set("serve.maintenance_passes", float64(many.maintenance), "count")
	if c := fm.srv.DecisionCache(); c != nil {
		b.setCache(c.Counters())
	}
	b.set("trace.overhead_s", wallDump-wallMany, "s")
	var updTotal float64
	for _, d := range st.update {
		updTotal += d
	}
	learning := updTotal - float64(len(st.update))*decideMed
	b.set("learning_share", learning/callTime(fl), "share")
	b.logf("traced: replay %.3fs at workers=1, %.3fs at workers=%d, %.3fs with the span dump; re-drive %d batches (%d updates, %d reprograms) in %.3fs controller time, %d mismatches",
		wallOne, wallMany, b.opts.workers, wallDump, st.runs, st.updates, st.reprograms, st.ctrlTime, bad)
	b.logSim(many)
	return h.finish()
}
