package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteChromeTrace renders every held span as Chrome trace-event JSON —
// the "JSON Array with metadata" form chrome://tracing and Perfetto load
// directly. Each span becomes one complete ("ph":"X") event: timestamps in
// microseconds on the clock's virtual time base, the span's track as the
// thread id (one lane per track), and the typed attributes plus the
// canonical span/parent ids under "args". Output is byte-identical for a
// given span set regardless of recording interleaving (see snapshot).
//
// A nil Tracer writes an empty (but valid) trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	if t != nil {
		for i, r := range t.snapshot() {
			sep := ","
			if i == 0 {
				sep = ""
			}
			if _, err := io.WriteString(w, sep+chromeEvent(r)+"\n"); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// chromeEvent renders one record as a trace-event object. Fields are
// hand-assembled (not map-marshalled) so key order — and therefore the
// byte stream — is deterministic.
func chromeEvent(r record) string {
	var sb strings.Builder
	sb.WriteString(`{"name":`)
	sb.WriteString(strconv.Quote(r.name))
	sb.WriteString(`,"cat":"odin","ph":"X","pid":0,"tid":`)
	sb.WriteString(strconv.Itoa(r.track))
	sb.WriteString(`,"ts":`)
	sb.WriteString(JSONFloat(r.start * 1e6)) // seconds -> microseconds
	sb.WriteString(`,"dur":`)
	sb.WriteString(JSONFloat((r.end - r.start) * 1e6))
	sb.WriteString(`,"args":{"span":`)
	sb.WriteString(strconv.FormatUint(r.id, 10))
	sb.WriteString(`,"parent":`)
	sb.WriteString(strconv.FormatUint(r.parent, 10))
	for _, a := range r.attrs {
		sb.WriteByte(',')
		sb.WriteString(strconv.Quote(a.Key))
		sb.WriteByte(':')
		sb.WriteString(a.jsonValue())
	}
	sb.WriteString("}}")
	return sb.String()
}

// FlameRow is the per-span-name aggregation of the flame summary.
type FlameRow struct {
	Name  string
	Count int

	Total float64 // Σ span durations (s)
	Self  float64 // Total minus time covered by direct children (s)

	P50, P90, P99 float64 // exact duration quantiles (s)
}

// FlameSummary aggregates the held spans by name: span count, total and
// self time, and exact p50/p90/p99 of the span durations (computed from
// the sorted duration list, not bucket-estimated — span sets are small
// enough to keep exactly; the telemetry histograms use bucket
// interpolation instead, see telemetry.Histogram.Quantile). Rows sort by
// total time descending, name ascending on ties. Self time subtracts the
// duration of *direct* children only, clamped at zero when children
// overlap their parent's window (virtual-time spans never do).
func (t *Tracer) FlameSummary() []FlameRow {
	if t == nil {
		return nil
	}
	recs := t.snapshot()
	childSum := make(map[uint64]float64) // parent id -> Σ direct child durations
	for _, r := range recs {
		if r.parent != 0 {
			childSum[r.parent] += r.end - r.start
		}
	}
	byName := make(map[string]*FlameRow)
	durs := make(map[string][]float64)
	var names []string
	for _, r := range recs {
		row := byName[r.name]
		if row == nil {
			row = &FlameRow{Name: r.name}
			byName[r.name] = row
			names = append(names, r.name)
		}
		d := r.end - r.start
		row.Count++
		row.Total += d
		self := d - childSum[r.id]
		if self < 0 {
			self = 0
		}
		row.Self += self
		durs[r.name] = append(durs[r.name], d)
	}
	out := make([]FlameRow, 0, len(names))
	for _, name := range names {
		row := byName[name]
		ds := durs[name]
		sort.Float64s(ds)
		row.P50 = ExactQuantile(ds, 0.50)
		row.P90 = ExactQuantile(ds, 0.90)
		row.P99 = ExactQuantile(ds, 0.99)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		// Exact float ordering: equal totals fall through to the name
		// tie-breaker, so no tolerance is wanted here.
		if out[i].Total > out[j].Total {
			return true
		}
		if out[i].Total < out[j].Total {
			return false
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ExactQuantile returns the q-quantile of an ascending-sorted sample by
// the nearest-rank method (deterministic, no interpolation); 0 for an
// empty sample. telemetry.Histogram.Quantile is the bucket-interpolated
// estimate for streams too long to keep.
func ExactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// WriteFlame renders the flame summary as a fixed-width text table —
// deterministic bytes for a given span set (golden-snapshot friendly).
func (t *Tracer) WriteFlame(w io.Writer) error {
	rows := t.FlameSummary()
	if _, err := fmt.Fprintf(w, "%-24s %7s %14s %14s %12s %12s %12s\n",
		"span", "count", "total(s)", "self(s)", "p50(s)", "p90(s)", "p99(s)"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-24s %7d %14.6e %14.6e %12.4e %12.4e %12.4e\n",
			r.Name, r.Count, r.Total, r.Self, r.P50, r.P90, r.P99); err != nil {
			return err
		}
	}
	return nil
}
