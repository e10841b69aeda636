package main

import (
	"fmt"
	"runtime"
	"sort"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/obs"
	"odin/internal/policy"
	"odin/internal/pulse"
	"odin/internal/serve"
	"odin/internal/telemetry"
)

// replaySpec describes one fleet-replay workload.
type replaySpec struct {
	name          string
	chips         int
	requests      int // trace length
	tinyChips     int // self-test sizes
	tinyRequests  int
	router        string
	stagger       bool // back-date ProgrammedAt across the forced-reprogram deadline
	sinks         bool // tracer and pulse rings on, at odinserve serve's defaults
	wantUpdates   bool // the trace must drive online policy updates (else: none)
	wantMaintains bool // the drift router must take off-path maintenance passes
	seedFree      bool // the checked output does not depend on the seed: one pin
	setupReps     int  // extra bring-ups timed for setup_s besides the ops'
}

// model is the zoo workload every chip of both replays hosts.
const model = "VGG11"

// utilisation is the virtual arrival rate as a share of fleet capacity:
// low enough that queues drain and nothing sheds, as odinserve replay's
// auto rate does.
const utilisation = 0.3

// Sink sizes match odinserve serve's defaults (-trace 4096, -pulse 8192).
const (
	tracerRing = 4096
	pulseRing  = 8192
)

var fleet8Drift = replaySpec{
	name: "replay-fleet8-drift", chips: 8, requests: 8000, tinyChips: 8, tinyRequests: 400,
	router: "drift", stagger: true, wantUpdates: true, wantMaintains: true, setupReps: 41,
}

// Every request of fleet1024RR finds its round-robin chip idle, so the
// arrival times never reach the decision log and every seed's trace
// yields the same checksum.
var fleet1024RR = replaySpec{
	name: "replay-fleet1024-rr", chips: 1024, requests: 4 * 1024, tinyChips: 32, tinyRequests: 4 * 32,
	router: "rr", sinks: true, seedFree: true, setupReps: 5,
}

// replayInputs is everything a replay op needs that set-up prepares.
type replayInputs struct {
	spec     replaySpec
	chips    []serve.ChipConfig
	trace    serve.Trace
	rate     float64
	deadline float64
}

func (sp replaySpec) sizes(tiny bool) (chips, requests int) {
	if tiny {
		return sp.tinyChips, sp.tinyRequests
	}
	return sp.chips, sp.requests
}

// probe measures the model's fresh-device service latency (for the rate)
// and its forced-reprogram deadline (for the stagger) on a throwaway
// controller that shares nothing with the fleets.
func probe() (lat, deadline float64, err error) {
	m, err := dnn.ByName(model)
	if err != nil {
		return 0, 0, err
	}
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(m)
	if err != nil {
		return 0, 0, err
	}
	ctrl, err := core.NewController(sys, wl, policy.New(policy.Config{Grid: sys.Grid(), Seed: 1}), core.ControllerOptions{})
	if err != nil {
		return 0, 0, err
	}
	return ctrl.RunInference(0).Latency, ctrl.ForcedReprogramAge(), nil
}

// inputs draws the seed's trace and the fleet layout. Chip i gets seed
// i+1 and, when staggered, is back-dated by i/N of the forced-reprogram
// deadline (as the fleet experiment does), so the drift router has chips
// inside its steering margin from the first arrival.
func (sp replaySpec) inputs(seed uint64, tiny bool, lat, deadline float64) (replayInputs, error) {
	n, reqs := sp.sizes(tiny)
	in := replayInputs{spec: sp, rate: utilisation * float64(n) / lat, deadline: deadline}
	in.chips = make([]serve.ChipConfig, n)
	for i := range in.chips {
		in.chips[i] = serve.ChipConfig{Model: model, Seed: uint64(i) + 1}
		if sp.stagger {
			in.chips[i].ProgrammedAt = -deadline * float64(i) / float64(n)
		}
	}
	tr, err := serve.GenTrace(serve.TraceConfig{Seed: seed, Rate: in.rate, Requests: reqs, Models: []string{model}})
	in.trace = tr
	return in, err
}

// fleet is one started server over a fresh fleet.
type fleet struct {
	srv *serve.Server
	clk *clock.Virtual
	reg *telemetry.Registry
	spn *obs.Tracer // virtual-time span dump, when requested
}

// bringUp builds and starts a fresh fleet. sinks turns the workload's
// instrumentation rings on; dump makes the tracer unbounded (the traced
// mode's schedule source) instead of a ring.
func (in replayInputs) bringUp(workers int, sinks, dump bool) (fleet, error) {
	clk := clock.NewVirtual(0)
	reg := telemetry.NewRegistry()
	cfg := serve.Config{
		Chips:    in.chips,
		Router:   in.spec.router,
		Workers:  workers,
		Clock:    clk,
		Registry: reg,
	}
	switch {
	case dump:
		cfg.Tracer = obs.New(clk)
	case sinks:
		cfg.Tracer = obs.NewRing(clk, tracerRing)
	}
	if sinks {
		cfg.Pulse = pulse.New(pulse.Options{Ring: pulseRing, Registry: reg})
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return fleet{}, err
	}
	s.Start()
	return fleet{srv: s, clk: clk, reg: reg, spn: cfg.Tracer}, nil
}

// outcome is what one replay op produced, read back from the fleet.
type outcome struct {
	res         serve.ReplayResult
	updates     int
	maintenance uint64
	onPath      uint64
	batches     uint64
	sojournP99  float64
	sojournN    int
}

func (f fleet) replay(tr serve.Trace) outcome {
	res := serve.Replay(f.srv, f.clk, tr)
	o := outcome{res: res}
	for _, st := range f.srv.Stats() {
		o.updates += st.PolicyUpdates
	}
	o.maintenance = f.reg.Counter("odinserve_maintenance_reprograms_total", "").Value()
	o.onPath = f.reg.Counter("odinserve_reprogram_on_path_requests_total", "").Value()
	o.batches = f.reg.Counter("odinserve_batches_total", "").Value()
	var soj []float64
	for _, r := range res.Responses {
		if !r.Shed && !r.Rejected && r.Err == "" {
			soj = append(soj, r.Wait+r.Latency)
		}
	}
	sort.Float64s(soj)
	o.sojournP99, o.sojournN = quantile(soj, 0.99), len(soj)
	return o
}

// replayProblem applies the reference checksum and the workload's shape
// assertions to one op and names the first violation ("" when none).
func replayProblem(sp replaySpec, o outcome, ref uint64, label string) string {
	bad := func(format string, args ...any) string {
		return fmt.Sprintf("%s %s: "+format, append([]any{sp.name, label}, args...)...)
	}
	r := o.res
	switch {
	case r.Checksum != ref:
		return bad("checksum %s differs from the reference %s", hex(r.Checksum), hex(ref))
	case r.Shed != 0 || r.Errors != 0 || r.Rejected != 0:
		return bad("shed=%d errors=%d rejected=%d, want none", r.Shed, r.Errors, r.Rejected)
	case sp.wantUpdates && o.updates == 0:
		return bad("no online policy updates")
	case !sp.wantUpdates && o.updates != 0:
		return bad("%d online policy updates, want 0", o.updates)
	case sp.wantMaintains && o.maintenance == 0:
		return bad("no maintenance passes")
	}
	return ""
}

func pinKey(sp replaySpec, tiny bool, seed uint64) string {
	key := sp.name
	if tiny {
		key += "/tiny"
	}
	if sp.seedFree {
		return key
	}
	return fmt.Sprintf("%s/%d", key, seed)
}

func replayWorkload(sp replaySpec) workload {
	return workload{
		measure: func(b *bench) error { return replayMeasure(b, sp) },
		traced:  func(b *bench) error { return replayTraced(b, sp) },
	}
}

// replaySetup probes the model and draws the inputs.
func replaySetup(b *bench, sp replaySpec) (replayInputs, error) {
	lat, deadline, err := probe()
	if err != nil {
		return replayInputs{}, err
	}
	return sp.inputs(b.opts.seed, b.opts.tiny, lat, deadline)
}

// reference runs the warm-up op at Workers=1. Its checksum is the
// reference every measured op (at -workers) must reproduce; it is checked
// against the pin when the seed has one.
func (b *bench) reference(in replayInputs) (outcome, error) {
	f, err := in.bringUp(1, in.spec.sinks, false)
	if err != nil {
		return outcome{}, err
	}
	o := f.replay(in.trace)
	key := pinKey(in.spec, b.opts.tiny, b.opts.seed)
	_, pinned := b.pins[key]
	b.judge(b.pinProblem(key, o.res.Checksum, false),
		replayProblem(in.spec, o, o.res.Checksum, "warm-up at workers=1"))
	b.logf("reference: %q checksum=%s pinned=%t (workers=1)", key, hex(o.res.Checksum), pinned)
	return o, nil
}

// setUp is one timed preparation: the service-latency probe, trace
// generation, and bring-up of a fresh fleet at -workers.
func (b *bench) setUp(sp replaySpec) (replayInputs, fleet, float64, error) {
	s := b.now()
	in, err := replaySetup(b, sp)
	if err != nil {
		return in, fleet{}, 0, err
	}
	f, err := in.bringUp(b.opts.workers, sp.sinks, false)
	return in, f, b.now() - s, err
}

func replayMeasure(b *bench, sp replaySpec) error {
	in, err := replaySetup(b, sp)
	if err != nil {
		return err
	}
	ref, err := b.reference(in)
	if err != nil {
		return err
	}

	var setup []float64
	var ops []sample
	// Extra set-ups: the setup_s median needs many samples even when few
	// ops fit the budget. A GC before each sample keeps collections of
	// earlier garbage out of the millisecond samples.
	for i := 0; i < sp.setupReps; i++ {
		runtime.GC()
		_, f, d, err := b.setUp(sp)
		if err != nil {
			return err
		}
		setup = append(setup, d)
		f.srv.Close()
	}
	var last outcome
	start := b.now()
	for b.more(start, ops) {
		runtime.GC()
		in, f, d, err := b.setUp(sp)
		if err != nil {
			return err
		}
		setup = append(setup, d)
		runtime.GC() // set-up's garbage stays out of the op
		var o outcome
		ops = append(ops, b.measureOp(func() { o = f.replay(in.trace) }))
		b.judge(replayProblem(sp, o, ref.res.Checksum, fmt.Sprintf("op %d", len(ops))))
		last = o
	}
	b.logf("chips=%d requests=%d rate=%.6g req/s router=%s workers=%d",
		len(in.chips), len(in.trace), in.rate, sp.router, b.opts.workers)
	b.endToEnd(setup, ops, float64(len(in.trace)), "req")
	b.logSim(last)
	return nil
}

// logSim prints the workload's simulated (virtual-time) metrics. They are
// pure functions of the seed's trace, identical across runs and worker
// counts, and covered by the decision-log checksum.
func (b *bench) logSim(o outcome) {
	r := o.res
	b.logf("sim: virt_p99_sojourn_us=%.6f (n=%d) reprograms_on_path=%d energy_per_req_uj=%.6f policy_updates=%d maintenance_passes=%d checksum=%s",
		o.sojournP99*1e6, o.sojournN, o.onPath, r.Energy/float64(r.Admitted)*1e6, o.updates, o.maintenance, hex(r.Checksum))
}
