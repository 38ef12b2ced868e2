// Package transition builds the long-term queue-type transition reports the
// deployed system generates (§7.1: "the queue context disambiguation module
// currently mainly runs on the short-term historical dataset to generate
// the queue type transition reports"): per-spot slot-to-slot transition
// counts, the row-normalized transition matrix and each context's
// persistence, and typical-day profiles aggregated over multiple days.
package transition

import (
	"fmt"
	"strings"

	"taxiqueue/internal/core"
)

// numTypes covers C1..C4 plus Unidentified (index by core.QueueType).
const numTypes = 5

// Matrix is a queue-type transition matrix: Matrix[a][b] is the count (or
// probability, after Normalize) of a slot labeled a being followed by one
// labeled b.
type Matrix [numTypes][numTypes]float64

// Count accumulates slot-to-slot transitions from one day's label sequence.
func (m *Matrix) Count(labels []core.QueueType) {
	for i := 1; i < len(labels); i++ {
		m[labels[i-1]][labels[i]]++
	}
}

// Normalize converts counts to row-stochastic probabilities. Rows with no
// observations become self-absorbing (identity), keeping the matrix
// stochastic.
func (m Matrix) Normalize() Matrix {
	var out Matrix
	for a := 0; a < numTypes; a++ {
		row := 0.0
		for b := 0; b < numTypes; b++ {
			row += m[a][b]
		}
		if row == 0 {
			out[a][a] = 1
			continue
		}
		for b := 0; b < numTypes; b++ {
			out[a][b] = m[a][b] / row
		}
	}
	return out
}

// String renders the matrix with row/column labels.
func (m Matrix) String() string {
	names := []string{"Unid", "C1", "C2", "C3", "C4"}
	order := []core.QueueType{core.C1, core.C2, core.C3, core.C4, core.Unidentified}
	var b strings.Builder
	b.WriteString("      ")
	for _, q := range order {
		fmt.Fprintf(&b, "%8s", names[q])
	}
	b.WriteByte('\n')
	for _, a := range order {
		fmt.Fprintf(&b, "%-6s", names[a])
		for _, c := range order {
			fmt.Fprintf(&b, "%8.3f", m[a][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Report aggregates context behaviour for one spot across days.
type Report struct {
	// Transitions are the raw slot-to-slot counts.
	Transitions Matrix
	// SlotMode[j] is the most frequent label of slot j across days.
	SlotMode []core.QueueType
	// Days is the number of label sequences aggregated.
	Days int
	slot [][numTypes]int
}

// NewReport creates a report for a day grid with the given slot count.
func NewReport(slots int) *Report {
	return &Report{SlotMode: make([]core.QueueType, slots), slot: make([][numTypes]int, slots)}
}

// AddDay folds one day's label sequence into the report. Sequences shorter
// or longer than the grid are clipped.
func (r *Report) AddDay(labels []core.QueueType) {
	r.Transitions.Count(labels)
	for j := 0; j < len(labels) && j < len(r.slot); j++ {
		r.slot[j][labels[j]]++
	}
	r.Days++
	for j := range r.slot {
		best, bestN := core.Unidentified, -1
		for q := 0; q < numTypes; q++ {
			if r.slot[j][q] > bestN {
				best, bestN = core.QueueType(q), r.slot[j][q]
			}
		}
		r.SlotMode[j] = best
	}
}

// TypicalDay renders the modal context per slot as merged time ranges,
// using slot length minutes (e.g. 30 for the paper's grid).
func (r *Report) TypicalDay(slotMinutes int) string {
	var b strings.Builder
	for j := 0; j < len(r.SlotMode); {
		k := j
		for k < len(r.SlotMode) && r.SlotMode[k] == r.SlotMode[j] {
			k++
		}
		fromMin := j * slotMinutes
		toMin := k * slotMinutes
		fmt.Fprintf(&b, "%02d:%02d-%02d:%02d %v\n",
			fromMin/60, fromMin%60, (toMin/60)%24, toMin%60, r.SlotMode[j])
		j = k
	}
	return b.String()
}

// Persistence returns, per queue type, the probability that the next slot
// keeps the same type (the diagonal of the normalized matrix) — a direct
// measure of how sticky each context is.
func (r *Report) Persistence() [numTypes]float64 {
	p := r.Transitions.Normalize()
	var out [numTypes]float64
	for q := 0; q < numTypes; q++ {
		out[q] = p[q][q]
	}
	return out
}
