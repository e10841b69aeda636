package serve

import (
	"slices"
	"sort"
	"strings"

	"odin/internal/obs"
	"odin/internal/pulse"
	"odin/internal/telemetry"
)

// The serve layer's one instrumentation seam: each method below books one
// serve fact by building its pulse.Event once and deriving every sink from
// that value — meters, the span or marker, the log line, the publish.
// Values a sink needs beyond the event are passed next to it. Disabled
// sinks cost one pointer test each: bus-only fields (drift age, rider
// tenants, start backlog) are filled behind Pulse.Enabled().

// metrics bundles the serve-path meters.
type metrics struct {
	requests  *telemetry.Counter
	admitted  *telemetry.Counter
	shed      *telemetry.Counter
	errors    *telemetry.Counter
	rejected  *telemetry.Counter
	evicted   *telemetry.Counter
	quotaShed *telemetry.Counter
	completed *telemetry.Counter
	batches   *telemetry.Counter

	steered         *telemetry.Counter
	maintenance     *telemetry.Counter
	reprogramOnPath *telemetry.Counter

	fleetChips   *telemetry.Gauge
	chipsAdded   *telemetry.Counter
	chipsRemoved *telemetry.Counter

	tenantRequests *telemetry.CounterVec
	tenantAdmitted *telemetry.CounterVec
	tenantShed     *telemetry.CounterVec

	batchSize  *telemetry.Histogram
	queueWait  *telemetry.Histogram
	queueDepth *telemetry.Histogram

	chipDepth     *telemetry.GaugeVec
	chipReprogram *telemetry.CounterVec
	chipUpdates   *telemetry.CounterVec
	chipBatches   *telemetry.CounterVec
	chipEnergy    *telemetry.GaugeVec
	chipDegraded  *telemetry.GaugeVec
}

func newMetrics(r *telemetry.Registry) metrics {
	return metrics{
		requests:  r.Counter("odinserve_requests_total", "requests submitted"),
		admitted:  r.Counter("odinserve_admitted_total", "requests admitted past admission control"),
		shed:      r.Counter("odinserve_shed_total", "requests shed by admission control (429)"),
		errors:    r.Counter("odinserve_errors_total", "requests rejected for routing errors"),
		rejected:  r.Counter("odinserve_rejected_total", "submissions rejected while draining (never dispatched)"),
		evicted:   r.Counter("odinserve_evicted_total", "queued requests evicted by higher-priority arrivals (subset of shed)"),
		quotaShed: r.Counter("odinserve_quota_shed_total", "requests shed by tenant quota enforcement (subset of shed)"),
		completed: r.Counter("odinserve_completed_total", "requests served to completion"),
		batches:   r.Counter("odinserve_batches_total", "decision-pass batches dispatched"),

		steered: r.Counter("odinserve_steered_total",
			"arrivals routed away from a chip near its forced-reprogram deadline"),
		maintenance: r.Counter("odinserve_maintenance_reprograms_total",
			"off-path reprogram passes taken on idle chips"),
		reprogramOnPath: r.Counter("odinserve_reprogram_on_path_requests_total",
			"requests whose batch carried a forced reprogram stall"),

		fleetChips:   r.Gauge("odinserve_fleet_chips", "live (non-removed) chips in the fleet"),
		chipsAdded:   r.Counter("odinserve_chips_added_total", "chips hot-added while serving"),
		chipsRemoved: r.Counter("odinserve_chips_removed_total", "chips drained and removed while serving"),

		tenantRequests: r.CounterVec("odinserve_tenant_requests_total", "requests submitted per tenant", "tenant"),
		tenantAdmitted: r.CounterVec("odinserve_tenant_admitted_total", "requests admitted per tenant", "tenant"),
		tenantShed:     r.CounterVec("odinserve_tenant_shed_total", "requests shed per tenant (quota, queue, or eviction)", "tenant"),

		batchSize: r.Histogram("odinserve_batch_size",
			"coalesced requests per batch", []float64{1, 2, 4, 8, 16, 32}),
		queueWait: r.Histogram("odinserve_queue_wait_seconds",
			"virtual queue wait per request", []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}),
		queueDepth: r.Histogram("odinserve_queue_depth",
			"chip queue depth sampled at admission", []float64{0, 1, 2, 4, 8, 16, 32, 64}),

		chipDepth:     r.GaugeVec("odinserve_chip_queue_depth", "current queue depth per chip", "chip"),
		chipReprogram: r.CounterVec("odinserve_chip_reprograms_total", "reprogramming passes per chip", "chip"),
		chipUpdates:   r.CounterVec("odinserve_chip_policy_updates_total", "online policy updates per chip", "chip"),
		chipBatches:   r.CounterVec("odinserve_chip_batches_total", "batches executed per chip", "chip"),
		chipEnergy:    r.GaugeVec("odinserve_chip_energy_joules", "cumulative served energy per chip", "chip"),
		chipDegraded:  r.GaugeVec("odinserve_chip_degraded", "1 when the chip exhausted its reprogram budget", "chip"),
	}
}

// arrived books an arrival the dispatcher took in. Submissions refused
// before dispatch book theirs through shed("reject").
func (s *Server) arrived(req *Request) {
	s.met.requests.Inc()
	if req.ten != nil {
		s.met.tenantRequests.With(req.ten.label).Inc()
	}
}

// routeError books an arrival for a model no live chip hosts.
func (s *Server) routeError() { s.met.errors.Inc() }

// steered books an arrival routed around a chip near its forced-reprogram
// deadline.
func (s *Server) steered() { s.met.steered.Inc() }

// admitted books req, just appended to c's queue.
func (s *Server) admitted(c *chip, req *Request) {
	s.met.admitted.Inc()
	if req.ten != nil {
		s.met.tenantAdmitted.With(req.ten.label).Inc()
	}
	s.met.queueDepth.Observe(float64(len(c.pending) - 1))
	s.met.chipDepth.With(c.label).Set(float64(len(c.pending)))
}

// shed books one refused request r at t. reason is "queue" (c's queue was
// full), "quota" (r's tenant is at its quota), "evict" (r was queued on c
// and made room for the higher-priority arrival by) or "reject" (submitted
// while draining, never dispatched; safe off the dispatcher goroutine). c
// is nil for the fleet-level quota and reject sheds; track is the trace
// track of the span marker (the first host for quota). Shed decisions are
// exact under replay — admission synchronously advanced to t — so every
// sink's content is deterministic.
func (s *Server) shed(reason string, r *Request, c *chip, track int, t float64, by uint64) {
	ev := pulse.Event{Kind: pulse.KindShed, Time: t, Chip: -1, Model: r.Model,
		Request: r.ID, Reason: reason}
	if c != nil {
		ev.Chip = c.id
	}
	if s.tenantsOn {
		ev.Tenant = tenantLabel(r.Tenant)
	}
	if reason == "reject" {
		s.met.requests.Inc()
		s.met.rejected.Inc()
	} else {
		s.met.shed.Inc()
		if ev.Tenant != "" {
			s.met.tenantShed.With(ev.Tenant).Inc()
		}
	}
	var span string
	var attr obs.Attr
	switch reason {
	case "queue":
		span, attr = "shed", obs.String("model", ev.Model)
	case "quota":
		s.met.quotaShed.Inc()
		span, attr = "quota-shed", obs.String("tenant", ev.Tenant)
	case "evict":
		s.met.evicted.Inc()
		s.met.chipDepth.With(c.label).Set(float64(len(c.pending)))
		span, attr = "evict", obs.Int64("by", int64(by))
	}
	if tr := s.cfg.Tracer; tr.Enabled() && span != "" {
		tr.At(span, track, t, t, nil, obs.Int64("request", int64(ev.Request)), attr)
	}
	if p := s.cfg.Pulse; p.Enabled() {
		p.Publish(ev)
	}
}

// lifecycle books the hot add ("add") or drain-and-remove ("remove") of
// chip c. Ops ride the dispatcher's event stream, so s.lastT (the last
// arrival's time) is the op's deterministic virtual position.
func (s *Server) lifecycle(action string, c *chip) {
	ev := pulse.Event{Kind: pulse.KindLifecycle, Time: s.lastT, Chip: c.id,
		Model: c.model, Action: action, Fleet: s.live}
	s.met.fleetChips.Set(float64(ev.Fleet))
	if action == "add" {
		s.met.chipsAdded.Inc()
	} else {
		s.met.chipsRemoved.Inc()
		s.met.chipDepth.With(c.label).Set(0)
	}
	if p := s.cfg.Pulse; p.Enabled() {
		p.Publish(ev)
	}
	if l := s.cfg.Logger; l != nil {
		if action == "add" {
			l.Info("chip added", "chip", ev.Chip, "model", ev.Model)
		} else {
			l.Info("chip removed", "chip", ev.Chip, "model", ev.Model, "served", c.served)
		}
	}
}

// reprogrammed books a write pass on c at t: "maintenance" (off-path, on
// an idle chip, one pass) or "forced" (passes write passes carried by a
// batch of riders requests). degraded reports that the pass exhausted c's
// reprogram budget. Both callers hold exact state — maintenance runs
// after a blocking advance, a forced pass at its batch's retirement with
// no successor in flight — so controller reads here are deterministic.
func (s *Server) reprogrammed(c *chip, pass string, t float64, passes, riders int, degraded bool) {
	ev := pulse.Event{Kind: pulse.KindReprogram, Time: t, Chip: c.id, Model: c.model,
		Pass: pass, Count: c.ctrl.Reprograms()}
	if pass == "maintenance" {
		s.met.maintenance.Inc()
		s.met.chipEnergy.With(c.label).Set(c.energySum)
	} else {
		s.met.reprogramOnPath.Add(uint64(riders))
	}
	s.met.chipReprogram.With(c.label).Add(uint64(passes))
	if p := s.cfg.Pulse; p.Enabled() {
		ev.Age = c.ctrl.Age(t)
		p.Publish(ev)
	}
	if degraded {
		s.met.chipDegraded.With(c.label).Set(1)
		if l := s.cfg.Logger; l != nil {
			l.Warn("chip degraded", "chip", ev.Chip, "model", ev.Model,
				"reprograms", ev.Count, "budget", s.cfg.ReprogramBudget)
		}
	}
}

// batchStarted books batch b leaving its chip's queue for the worker pool.
func (s *Server) batchStarted(b *batch) {
	c := b.chip
	if s.cfg.Pulse.Enabled() {
		// Backlog left behind at the batch's start — the pending prefix
		// with arrival <= start (pending is FIFO in clamped arrival order,
		// so the first later arrival ends the count). A pure function of
		// virtual time, unlike len(pending) at result observation; see the
		// batch.depth comment.
		for _, r := range c.pending {
			if r.Arrival > b.start {
				break
			}
			b.depth++
		}
	}
	s.met.batches.Inc()
	s.met.batchSize.Observe(float64(len(b.reqs)))
	s.met.chipBatches.With(c.label).Inc()
	s.met.chipDepth.With(c.label).Set(float64(len(c.pending)))
}

// batchRetired books batch b, whose riders were just answered. Everything
// it emits is a pure function of the batch: its virtual start and finish,
// the deterministic report, the start-time backlog (b.depth), and the
// controller's post-batch drift state — the next batch cannot have run
// (one in flight per chip), and maintenance passes require an idle chip,
// so Age here is the chip's exact state after batch b regardless of when
// the dispatcher observed the result.
func (s *Server) batchRetired(b *batch) {
	c, rep := b.chip, &b.rep
	ev := pulse.Event{Kind: pulse.KindBatch, Time: b.finish, Chip: c.id, Model: c.model,
		Batch: b.id, Size: len(b.reqs), Queue: b.depth, Latency: rep.BatchLatency(),
		Energy: rep.BatchEnergy(), Reprogram: rep.Reprogrammed}
	if tr := s.cfg.Tracer; tr.Enabled() {
		span := tr.At("batch", c.id, b.start, ev.Time, nil,
			obs.String("model", ev.Model),
			obs.Int64("batch", int64(ev.Batch)),
			obs.Int("size", ev.Size),
			obs.Float("energy", ev.Energy),
			obs.Bool("reprogrammed", ev.Reprogram))
		for i, r := range b.reqs {
			tr.At("request", c.id, r.Arrival, b.start+float64(i+1)*rep.Latency, span,
				obs.Int64("request", int64(r.ID)),
				obs.Float("wait", b.wait(i)))
		}
	}
	s.met.completed.Add(uint64(ev.Size))
	for i := range b.reqs {
		s.met.queueWait.Observe(b.wait(i))
	}
	s.met.chipEnergy.With(c.label).Set(c.energySum)
	if rep.PolicyUpdated {
		s.met.chipUpdates.With(c.label).Inc()
	}
	if p := s.cfg.Pulse; p.Enabled() {
		ev.Age, ev.Deadline = c.ctrl.Age(b.finish), c.ctrl.ForcedReprogramAge()
		if s.tenantsOn {
			ev.Tenant = batchTenants(b.reqs)
		}
		p.Publish(ev)
	}
}

// batchTenants renders the batch's distinct rider tenant labels, sorted —
// deterministic because it depends only on batch composition.
func batchTenants(reqs []*Request) string {
	var labels []string
	for _, r := range reqs {
		if l := tenantLabel(r.Tenant); !slices.Contains(labels, l) {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	return strings.Join(labels, ",")
}

// drained books the end of a drain: every chip's queue is empty.
func (s *Server) drained() {
	for _, c := range s.chips {
		s.met.chipDepth.With(c.label).Set(0)
	}
	if l := s.cfg.Logger; l != nil {
		l.Info("fleet drained", "chips", len(s.chips))
	}
}
