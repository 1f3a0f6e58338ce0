// Package experiments maps every table and figure of the paper's evaluation
// to runnable code: scenario construction, parameter sweeps, measurement
// windows, and paper-style result tables. Each experiment runs at either
// "quick" scale (reduced bandwidth/duration with dimensionless quantities —
// buffer in BDPs, measurement window in RTTs — preserved, suitable for
// go test -bench) or "paper" scale (the paper's exact parameters).
package experiments

import "pert/internal/scenario"

// Scheme is one end-to-end congestion-control + queue-management combination
// from the paper's comparison set. The definitions live in the scenario
// package's scheme registry (internal/scenario); this type is the
// experiment-side handle for them.
type Scheme string

// The paper's comparison set (Section 4) plus the Section 6 PI pair, and —
// beyond the paper — the remaining AQMs from its citation list (REM [2],
// AVQ [19]) as router baselines and REM as an end-host emulation.
const (
	PERT         Scheme = "PERT"          // PERT over DropTail
	SackDroptail Scheme = "Sack/Droptail" // SACK over DropTail
	SackRED      Scheme = "Sack/RED-ECN"  // ECN-enabled SACK over Adaptive RED
	Vegas        Scheme = "Vegas"         // Vegas over DropTail
	PERTPI       Scheme = "PERT-PI"       // PERT emulating PI, over DropTail
	SackPI       Scheme = "Sack/PI-ECN"   // ECN-enabled SACK over router PI
	PERTREM      Scheme = "PERT-REM"      // PERT emulating REM, over DropTail
	SackREM      Scheme = "Sack/REM-ECN"  // ECN-enabled SACK over router REM
	SackAVQ      Scheme = "Sack/AVQ-ECN"  // ECN-enabled SACK over router AVQ
)

// AllSection4Schemes is the comparison set used in Figures 6-9, 11, 12 and
// Table 1, in the registry's presentation order.
var AllSection4Schemes = toSchemes(scenario.Section4Names())

// toSchemes converts registry names to experiment-side handles.
func toSchemes(names []string) []Scheme {
	out := make([]Scheme, len(names))
	for i, n := range names {
		out[i] = Scheme(n)
	}
	return out
}

// Known reports whether s names a registered scheme.
func (s Scheme) Known() bool {
	return scenario.Known(string(s))
}
