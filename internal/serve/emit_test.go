package serve

import (
	"bytes"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"testing"

	"odin/internal/check"
	"odin/internal/clock"
	"odin/internal/obs"
	"odin/internal/pulse"
	"odin/internal/telemetry"
)

// sinkDump is everything one fully instrumented replay leaves behind.
type sinkDump struct {
	res     ReplayResult
	trace   []byte // canonical Chrome trace
	metrics []byte // post-drain /metrics exposition
	pulse   []byte // canonical pulse event log
	log     []byte // slog lines, sorted (emission order is scheduling-dependent)
}

// sinkReplay runs the emit-site fixture: a tiny-model fleet with every
// sink attached (tracer, pulse bus, logger, shared registry) and a
// schedule that fires every serve fact at least once — tenant quota sheds,
// priority evictions, queue sheds, a routing error, drift-router
// maintenance passes next to forced on-path reprograms, reprogram-budget
// degradation, one hot add and one hot remove.
func sinkReplay(t testing.TB, workers int) sinkDump {
	t.Helper()
	lat := probeLatency(t)
	sys := driftSystem()
	clk := clock.NewVirtual(0)
	reg := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	cfg := Config{
		Clock:           clk,
		Router:          "drift",
		QueueDepth:      2,
		MaxBatch:        2,
		Workers:         workers,
		ReprogramBudget: 1,
		System:          &sys,
		Registry:        reg,
		Tracer:          obs.New(clk),
		Pulse:           pulse.New(pulse.Options{Registry: reg}),
		// The log clock never moves: dispatcher log calls race the replay
		// submitter's clock, so only the line contents are deterministic.
		Logger: slog.New(obs.NewLogHandler(&logBuf, clock.NewVirtual(0), slog.LevelInfo)),
		Tenants: []TenantConfig{
			{Name: "gold", Priority: 1},
			{Name: "metered", Quota: 2},
		},
		Chips: []ChipConfig{
			{Custom: tinyModel("tiny"), Seed: 1},
			{Custom: tinyModel("tiny"), Seed: 2, ProgrammedAt: -1.46e-5},
		},
	}
	// Cross-chip decision-cache hits depend on worker scheduling; the
	// fixture pins sinks, not the cache's own counters.
	cfg.Controller.DisableDecisionCache = true
	const n = 150
	tr, err := GenTrace(TraceConfig{
		Seed:     11,
		Rate:     3 / lat,
		Requests: n,
		Models:   []string{"tiny"},
		Tenants:  []string{"", "gold", "metered"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr[n/2].Model = "absent" // one routing error
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ops := []FleetOp{
		{After: n / 3, Add: &ChipConfig{Custom: tinyModel("tiny"), Seed: 3}},
		{After: 2 * n / 3, Remove: 1},
	}
	var d sinkDump
	d.res = ReplayOps(s, clk, tr, ops)
	var buf bytes.Buffer
	if err := cfg.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	d.trace = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	d.metrics = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := cfg.Pulse.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	d.pulse = append([]byte(nil), buf.Bytes()...)
	lines := strings.SplitAfter(logBuf.String(), "\n")
	sort.Strings(lines)
	d.log = []byte(strings.Join(lines, ""))
	return d
}

// TestEmitSitesGolden pins every serve sink of the fixture replay
// byte-for-byte: the Chrome trace, the post-drain /metrics exposition, the
// canonical pulse log and the log lines. The fixture must actually fire
// every emit site, and the dumps must not depend on worker count.
// Regenerate with `go test -run TestEmitSitesGolden -update ./internal/serve/`.
func TestEmitSitesGolden(t *testing.T) {
	t.Parallel()
	d := sinkReplay(t, 1)
	for _, want := range []string{
		`"kind":"lifecycle"`, `"action":"add"`, `"action":"remove"`,
		`"reason":"queue"`, `"reason":"quota"`, `"reason":"evict"`,
		`"pass":"maintenance"`, `"pass":"forced"`, `"kind":"decision"`,
	} {
		if !bytes.Contains(d.pulse, []byte(want)) {
			t.Errorf("fixture pulse log carries no %s; an emit site goes unpinned", want)
		}
	}
	for _, want := range []string{
		`"quota-shed"`, `"shed"`, `"evict"`, `"batch"`, `"request"`, `"reprogram"`,
	} {
		if !bytes.Contains(d.trace, []byte(want)) {
			t.Errorf("fixture trace carries no %s spans", want)
		}
	}
	for _, want := range []string{
		"odinserve_errors_total 1\n", "odinserve_chips_added_total 1\n",
		"odinserve_chips_removed_total 1\n",
	} {
		if !bytes.Contains(d.metrics, []byte(want)) {
			t.Errorf("fixture metrics miss %q", want)
		}
	}
	for _, zero := range []string{
		"odinserve_evicted_total 0\n", "odinserve_quota_shed_total 0\n",
		"odinserve_steered_total 0\n", "odinserve_maintenance_reprograms_total 0\n",
		"odinserve_reprogram_on_path_requests_total 0\n",
	} {
		if bytes.Contains(d.metrics, []byte(zero)) {
			t.Errorf("fixture metrics read %q; that emit site never fired", strings.TrimSpace(zero))
		}
	}
	for _, want := range []string{`msg="chip added"`, `msg="chip removed"`, `msg="chip degraded"`, `msg="fleet drained"`} {
		if !bytes.Contains(d.log, []byte(want)) {
			t.Errorf("fixture log carries no %s line", want)
		}
	}

	check.Golden(t, "testdata/replay_trace.golden", d.trace)
	check.Golden(t, "testdata/metrics.golden", d.metrics)
	check.Golden(t, "testdata/emit_pulse_log.golden", d.pulse)
	check.Golden(t, "testdata/emit_log.golden", d.log)

	d4 := sinkReplay(t, 4)
	if d4.res.Checksum != d.res.Checksum {
		t.Fatalf("replay checksum diverged: workers=4 %#x, workers=1 %#x", d4.res.Checksum, d.res.Checksum)
	}
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"trace", d4.trace, d.trace}, {"metrics", d4.metrics, d.metrics},
		{"pulse log", d4.pulse, d.pulse}, {"log", d4.log, d.log},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s differs between workers 1 and 4:\n%s", c.name,
				check.DiffLines(string(c.want), string(c.got)))
		}
	}
}

// TestEmitSchema pins the contract surface the fixture replay exposes:
// every exported meter family, every pulse event kind, and every JSON key
// each kind carries. Renaming or dropping any of them fails here by name.
func TestEmitSchema(t *testing.T) {
	t.Parallel()
	d := sinkReplay(t, 1)
	for _, name := range []string{
		"odinserve_requests_total", "odinserve_admitted_total", "odinserve_shed_total",
		"odinserve_errors_total", "odinserve_rejected_total", "odinserve_evicted_total",
		"odinserve_quota_shed_total", "odinserve_completed_total", "odinserve_batches_total",
		"odinserve_steered_total", "odinserve_maintenance_reprograms_total",
		"odinserve_reprogram_on_path_requests_total",
		"odinserve_fleet_chips", "odinserve_chips_added_total", "odinserve_chips_removed_total",
		"odinserve_tenant_requests_total", "odinserve_tenant_admitted_total",
		"odinserve_tenant_shed_total",
		"odinserve_batch_size", "odinserve_queue_wait_seconds", "odinserve_queue_depth",
		"odinserve_chip_queue_depth", "odinserve_chip_reprograms_total",
		"odinserve_chip_policy_updates_total", "odinserve_chip_batches_total",
		"odinserve_chip_energy_joules", "odinserve_chip_degraded",
		"odin_pulse_events_total", "odin_pulse_dropped_total",
		"odin_pulse_ring_evicted_total", "odin_pulse_subscribers",
	} {
		if !bytes.Contains(d.metrics, []byte("# TYPE "+name+" ")) {
			t.Errorf("metric family %s missing from /metrics", name)
		}
	}

	// Reject sheds are live-only (a replay submits before Close), so the
	// fixture log never carries one; append a rendered one.
	reject := pulse.Event{Kind: pulse.KindShed, Chip: -1, Model: "tiny", Reason: "reject", Tenant: "default"}
	log := string(reject.AppendJSON(d.pulse))
	common := []string{"seq", "t", "kind", "chip", "model"}
	for _, c := range []struct {
		kind string
		keys []string
	}{
		{"lifecycle", []string{"action", "fleet"}},
		{"batch", []string{"batch", "size", "queue", "lat", "energy", "age", "deadline", "reprogram", "tenants"}},
		{"reprogram", []string{"pass", "count", "age"}},
		{"decision", []string{"layers", "evals", "disagree", "strategy", "sizes", "age", "reprogram"}},
		{"shed", []string{"request", "reason", "tenant"}},
	} {
		k, err := pulse.ParseKind(c.kind)
		if err != nil || k.String() != c.kind {
			t.Errorf("pulse kind %s does not round-trip: %v %v", c.kind, k, err)
			continue
		}
		var keys []string
		for _, line := range strings.Split(log, "\n") {
			if strings.Contains(line, `"kind":"`+c.kind+`"`) {
				keys = append(keys, line)
			}
		}
		if len(keys) == 0 {
			t.Errorf("pulse log carries no %s event", c.kind)
			continue
		}
		for _, key := range append(common, c.keys...) {
			found := false
			for _, line := range keys {
				if strings.Contains(line, `"`+key+`":`) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no %s event carries JSON key %q", c.kind, key)
			}
		}
	}
}

// TestChipDepthGaugeTracksAdvance pins odinserve_chip_queue_depth on chips
// the router did not pick: the exact router's advance starts queued
// batches on every candidate, and each such chip's gauge must follow its
// queue down instead of holding the depth of its last own arrival.
func TestChipDepthGaugeTracksAdvance(t *testing.T) {
	t.Parallel()
	lat := probeLatency(t)
	s, clk := tinyServer(t, 2, Config{Router: "least", QueueDepth: 4, MaxBatch: 1})
	defer s.Close()
	// t=0: r0 and r1 dispatch on chips 0 and 1; r2 and r3 queue behind them.
	for i := 0; i < 4; i++ {
		s.Submit("tiny")
	}
	// Long after both queues drained, one arrival lands on chip 0; the
	// advance also ran chip 1's queued batch.
	clk.Set(100 * lat)
	s.Submit("tiny")
	info, err := s.FleetInfo() // rides the event stream, so the arrival was processed
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, c := range info {
		want := fmt.Sprintf("odinserve_chip_queue_depth{chip=\"%d\"} %d\n", c.ID, c.Queue)
		if !strings.Contains(sb.String(), want) {
			t.Errorf("chip %d queue holds %d but /metrics lacks %q", c.ID, c.Queue, strings.TrimSpace(want))
		}
	}
}
