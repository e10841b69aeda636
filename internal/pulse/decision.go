package pulse

import (
	"slices"
	"strconv"
	"strings"

	"odin/internal/obs"
)

// DecisionEvent summarises one controller run's layer decisions as a
// KindDecision event — the audit-hook lift: serve taps each chip's
// obs.AuditLog and publishes this per run. The summary deliberately
// carries only scheduling-independent fields: strategies, evaluation
// counts, disagreements, and chosen sizes are byte-identical whether a
// decision came from a live search or the shared decision cache (the
// decache contract), while the Cached attribution itself depends on
// cross-chip scheduling and is therefore excluded — including it would
// break the worker-count byte-identity of replay event logs.
func DecisionEvent(chip int, model string, r obs.RunAudit) Event {
	var sizes strings.Builder
	var strats []string
	for i, l := range r.Layers {
		if i > 0 {
			sizes.WriteByte(',')
		}
		sizes.WriteString(strconv.Itoa(l.Chosen.R))
		sizes.WriteByte('x')
		sizes.WriteString(strconv.Itoa(l.Chosen.C))
		if !slices.Contains(strats, l.Strategy) {
			strats = append(strats, l.Strategy)
		}
	}
	return Event{
		Kind:          KindDecision,
		Time:          r.Time,
		Chip:          chip,
		Model:         model,
		Layers:        len(r.Layers),
		Evaluations:   r.Evaluations(),
		Disagreements: r.Disagreements(),
		Strategy:      strings.Join(strats, ","),
		Sizes:         sizes.String(),
		Age:           r.Age,
		Reprogram:     r.Reprogrammed,
	}
}
