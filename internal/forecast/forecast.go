// Package forecast answers "what will the queue be at 18:30?" — ROADMAP
// item 3. The paper's engine labels only the *current* slot; this package
// learns per-(spot, slot-of-day) arrival/departure-rate profiles from
// closed slots and evaluates them at any future instant, following the
// related queueing work (He's airport M/M/c decision models, Luo et al.'s
// probabilistic queue-length estimation from periodic snapshots).
//
// A profile is an exponentially-weighted (over days) summary of every
// final observation of one slot-of-day at one spot: mean arrival count,
// departure count, wait, departure interval, Little's-Law queue length,
// and a weighted label histogram. Day d's closed slot j folds into
// profile (spot, j) exactly once (a per-cell day watermark makes replays
// and racing appenders idempotent, mirroring internal/history), so the
// learner can sit directly on the ingest snapshot-publish seam via the
// same AppendSlots contract the history store implements.
//
// Forecasting is a pure function of an immutable profile Table: when the
// learned rate regime is stable (λ below the service capacity implied by
// the departure interval, with enough observed days behind it) the wait
// and queue length come from the M/M/c Erlang-C model in
// internal/queueing; otherwise — a saturated taxi stand is exactly the
// regime where M/M/c has no stationary answer — the empirical per-slot
// history answers directly. Tables are published behind an atomic pointer
// (RCU style, like every read path in this repo), so queries take no lock
// and never see a half-applied day.
//
// Profiles are derived state and are never written to disk: they are a
// pure fold over the history store's closed slots, so after a restart
// BackfillHistory rebuilds the exact table (and in live mode, WAL replay
// through the ingest tee re-folds the current day).
package forecast

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/queueing"
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("forecast: learner closed")

// numLabels is the label-histogram width (Unidentified..C4).
const numLabels = int(core.C4) + 1

// Config parameterizes a Learner.
type Config struct {
	// Grid is the slot partition profiles are laid out over; day d, slot j
	// of the learned feed covers Grid.Start + d·(Slots·SlotLen) + j·SlotLen,
	// and every day folds into the same Slots slot-of-day profiles.
	// Required.
	Grid core.SlotGrid
	// Spots is how many queue spots the learner tracks. Required (>0 to be
	// useful, 0 allowed for a spotless bootstrap).
	Spots int
	// Thresholds are the per-spot QCD thresholds, indexed like the spot
	// set; needed to synthesize the label of a never-observed cell exactly
	// like the batch engine and the history store do. Required, len ==
	// Spots.
	Thresholds []core.Thresholds
	// Metrics is the registry the learner's collectors live in; a private
	// registry when nil.
	Metrics *obs.Registry
}

// The model's settings.
const (
	// beta is the per-day exponential decay: folding a new day multiplies
	// every older day's weight by beta^gap — a week of history carries
	// ~92% of the total weight.
	beta = 0.7
	// minModelWeight is the effective observed-day weight below which the
	// M/M/c model is not trusted and forecasts stay empirical.
	minModelWeight = 2
	// maxModelRho is the utilization ceiling for the model path: the
	// stationary Erlang-C answer diverges as ρ→1, and the learned rates
	// are noisy means, so a near-saturated regime answers empirically
	// even when nominally stable.
	maxModelRho = 0.85
	// servers is the M/M/c server count — the loading bays of He's
	// airport model.
	servers = 2
)

func (c Config) withDefaults() Config {
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// SlotProfile is one (spot, slot-of-day) learned profile: exponentially-
// weighted means over every day whose slot closed, plus the weighted label
// histogram. The zero value means "never observed".
type SlotProfile struct {
	// Weight is the effective number of observed days (Σ beta^age); it is
	// both the normalizer of the means and the forecast's confidence.
	Weight float64
	// NArr/NDep are the EW mean per-slot arrival and departure counts
	// (amplified, like the features they fold).
	NArr, NDep float64
	// WaitSec/TDepSec are the EW mean t̄wait and t̄dep in seconds.
	WaitSec, TDepSec float64
	// QLen is the EW mean Little's-Law queue length L̄.
	QLen float64
	// LabelW is the EW label histogram; the forecast label is its argmax.
	LabelW [numLabels]float64
}

// fold merges one day's observation into the profile; gap is the number
// of days since the last fold (≥ 1).
func (p *SlotProfile) fold(f core.SlotFeatures, label core.QueueType, gap int) {
	decay := math.Pow(beta, float64(gap))
	p.Weight = p.Weight*decay + 1
	w := 1 / p.Weight
	p.NArr += (f.NArr - p.NArr) * w
	p.NDep += (f.NDep - p.NDep) * w
	p.WaitSec += (f.TWait.Seconds() - p.WaitSec) * w
	p.TDepSec += (f.TDep.Seconds() - p.TDepSec) * w
	p.QLen += (f.QLen - p.QLen) * w
	for i := range p.LabelW {
		p.LabelW[i] *= decay
	}
	if int(label) < numLabels {
		p.LabelW[label]++
	}
}

// label returns the histogram argmax (ties break toward the lower label
// index, deterministically).
func (p *SlotProfile) label() core.QueueType {
	best, bestW := 0, p.LabelW[0]
	for i := 1; i < numLabels; i++ {
		if p.LabelW[i] > bestW {
			best, bestW = i, p.LabelW[i]
		}
	}
	return core.QueueType(best)
}

// cell is one (spot, slot) learner cell: the profile plus the day
// watermark that makes folds idempotent.
type cell struct {
	lastDay int // newest day folded in; -1 when never observed
	p       SlotProfile
}

// Source says which estimator produced a forecast.
type Source uint8

const (
	// SourceNone: the slot has never been observed; the label is the
	// spot's synthesized empty context and the numbers are zero.
	SourceNone Source = iota
	// SourceEmpirical: the EW per-slot history answered directly (the rate
	// regime was unstable, under-observed, or rate-free).
	SourceEmpirical
	// SourceModel: the M/M/c Erlang-C model answered from the learned
	// rates.
	SourceModel
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceModel:
		return "model"
	case SourceEmpirical:
		return "empirical"
	default:
		return "none"
	}
}

// Forecast is the expected queue state of one spot at one future instant.
type Forecast struct {
	// Time is the start of the slot the instant falls in; Day/Slot its
	// grid coordinates (Slot is the slot-of-day the profile keys on).
	Time time.Time
	Day  int
	Slot int
	// Label is the expected queue context (EW-histogram mode).
	Label core.QueueType
	// QLen is the expected FREE-taxi queue length: the EW empirical mean
	// of the per-slot Little's-Law L̄.
	QLen float64
	// Wait is the expected wait time — Erlang-C when Source is Model,
	// the EW empirical mean wait otherwise.
	Wait time.Duration
	// Source says which estimator produced Wait.
	Source Source
	// Weight is the effective number of observed days behind the answer.
	Weight float64
}

// Table is one immutable published profile table. Forecasts are pure
// functions of it, so they inherit the repo's lock-free read path: load
// the table once, read plain memory.
type Table struct {
	grid     core.SlotGrid
	slotSec  float64
	profiles [][]SlotProfile   // [spot][slot-of-day]
	ths      []core.Thresholds // per spot; labels a never-observed slot
	met      *metrics          // nil-safe; query latency only
}

// Spots returns how many queue spots the table profiles.
func (t *Table) Spots() int { return len(t.profiles) }

// Slots returns the slot-of-day count.
func (t *Table) Slots() int { return t.grid.Slots }

// Profile returns the (spot, slot-of-day) profile; the zero profile for
// out-of-range indexes.
func (t *Table) Profile(spot, slot int) SlotProfile {
	if spot < 0 || spot >= len(t.profiles) || slot < 0 || slot >= t.grid.Slots {
		return SlotProfile{}
	}
	return t.profiles[spot][slot]
}

// Forecast evaluates spot's expected queue state at the instant at; ok is
// false for an out-of-range spot or an instant before the grid start.
//
// A never-observed slot answers SourceNone with the spot's synthesized
// empty context. Otherwise the empirical EW means are the baseline, and
// when the learned rate regime is stable — λ = NArr/slotLen comfortably
// below the service capacity 1/t̄dep, with at least minModelWeight
// observed days — the M/M/c Erlang-C queueing delay replaces the
// empirical wait.
func (t *Table) Forecast(spot int, at time.Time) (Forecast, bool) {
	if t.met != nil {
		t0 := time.Now()
		defer t.met.qForecast.Since(t0)
	}
	if spot < 0 || spot >= len(t.profiles) {
		return Forecast{}, false
	}
	// Future days are fine — that is the point.
	day, slot, ok := t.grid.Locate(at)
	if !ok {
		return Forecast{}, false
	}
	f := Forecast{Time: t.grid.TimeOf(day, slot), Day: day, Slot: slot}
	p := t.profiles[spot][slot]
	if p.Weight == 0 {
		f.Label = core.ClassifyCell(core.SlotFeatures{}, t.ths[spot])
		return f, true
	}
	f.Label = p.label()
	f.Weight = p.Weight
	f.QLen = p.QLen
	f.Wait = time.Duration(p.WaitSec * float64(time.Second))
	f.Source = SourceEmpirical

	lambda := p.NArr / t.slotSec
	if p.TDepSec <= 0 || lambda <= 0 || p.Weight < minModelWeight {
		return f, true
	}
	// t̄dep is the mean interval between consecutive departures, so the
	// stand's total service capacity is 1/t̄dep, split across the servers.
	q := queueing.MMc{Lambda: lambda, Mu: 1 / (p.TDepSec * servers), Servers: servers}
	// Beyond maxModelRho the stationary answer diverges (Lq ~ 1/(1-ρ)) while
	// the learned rates carry day-to-day noise — the empirical history is
	// the better estimator near saturation, not a blown-up Erlang-C tail.
	if !q.Stable() || q.Rho() > maxModelRho {
		return f, true
	}
	wq, err := q.Wq()
	if err != nil {
		return f, true
	}
	// The model refines the WAIT (Erlang-C queueing delay); the queue
	// length stays the EW empirical mean — the paper's L̄ is itself a
	// per-slot Little's-Law estimate, and the learned mean of that is the
	// best estimator of tomorrow's value.
	f.Wait, f.Source = wq, SourceModel
	return f, true
}

// Learner folds closed slots into per-(spot, slot-of-day) profiles and
// publishes immutable Tables. Appends are safe for concurrent use
// (serialized internally); Table loads are lock-free.
type Learner struct {
	cfg     Config
	slotSec float64
	met     *metrics

	pub atomic.Pointer[Table]

	mu     sync.Mutex
	cells  [][]cell // [spot][slot-of-day]
	closed bool
}

// Open builds a learner from cfg with an empty profile table; seed it with
// BackfillHistory.
func Open(cfg Config) (*Learner, error) {
	cfg = cfg.withDefaults()
	if cfg.Grid.Slots == 0 {
		return nil, errors.New("forecast: Grid must be set")
	}
	if len(cfg.Thresholds) != cfg.Spots {
		return nil, fmt.Errorf("forecast: %d spots but %d thresholds", cfg.Spots, len(cfg.Thresholds))
	}
	l := &Learner{
		cfg:     cfg,
		slotSec: cfg.Grid.SlotLen.Seconds(),
		met:     newMetrics(cfg.Metrics),
		cells:   make([][]cell, cfg.Spots),
	}
	for spot := range l.cells {
		row := make([]cell, cfg.Grid.Slots)
		for j := range row {
			row[j].lastDay = -1
		}
		l.cells[spot] = row
	}
	l.publishLocked()
	return l, nil
}

// Grid returns the learner's slot grid.
func (l *Learner) Grid() core.SlotGrid { return l.cfg.Grid }

// Spots returns how many queue spots the learner tracks.
func (l *Learner) Spots() int { return l.cfg.Spots }

// Table returns the current published profile table: one atomic load,
// never nil after Open.
func (l *Learner) Table() *Table { return l.pub.Load() }

// publishLocked swaps in a fresh immutable table built from the cells.
func (l *Learner) publishLocked() {
	t := &Table{
		grid:     l.cfg.Grid,
		slotSec:  l.slotSec,
		profiles: make([][]SlotProfile, len(l.cells)),
		ths:      l.cfg.Thresholds,
		met:      l.met,
	}
	for spot, row := range l.cells {
		ps := make([]SlotProfile, len(row))
		for j := range row {
			ps[j] = row[j].p
		}
		t.profiles[spot] = ps
	}
	l.pub.Store(t)
	l.met.weight.Set(int64(totalWeight(t)))
}

// totalWeight sums the effective observed-day weight across the table
// (the /metrics confidence gauge).
func totalWeight(t *Table) float64 {
	var w float64
	for _, row := range t.profiles {
		for j := range row {
			w += row[j].Weight
		}
	}
	return w
}

// AppendSlots folds slots [lo, hi) of one day into the profiles, reading
// each (spot, slot) closed context from at — the same contract
// internal/history implements, so a Learner plugs into the ingest
// service's History seam directly (or teed with the history store). A
// (spot, slot) cell folds each day at most once: re-appends of an
// already-folded day are no-ops, so WAL replays and racing appenders are
// exactly idempotent.
func (l *Learner) AppendSlots(day, lo, hi int, at func(spot, slot int) (core.SlotFeatures, core.QueueType)) error {
	if hi > l.cfg.Grid.Slots {
		hi = l.cfg.Grid.Slots
	}
	if lo < 0 {
		lo = 0
	}
	if day < 0 || lo >= hi {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	folded := 0
	for slot := lo; slot < hi; slot++ {
		for spot := range l.cells {
			c := &l.cells[spot][slot]
			if day <= c.lastDay {
				continue
			}
			f, label := at(spot, slot)
			gap := day - c.lastDay
			if c.lastDay < 0 {
				gap = 1
			}
			c.p.fold(f, label, gap)
			c.lastDay = day
			folded++
		}
	}
	l.met.appends.Inc()
	if folded > 0 {
		l.met.observes.Add(int64(folded))
		l.publishLocked()
	}
	return nil
}

// ObserveResult folds every slot of one batch analysis pass as day's
// observation — the daily batch path into the learner, complementing the
// live AppendSlots hook.
func (l *Learner) ObserveResult(day int, res *core.Result) error {
	if len(res.Spots) != l.cfg.Spots {
		return fmt.Errorf("forecast: observe day %d: result has %d spots, learner has %d",
			day, len(res.Spots), l.cfg.Spots)
	}
	return l.AppendSlots(day, 0, l.cfg.Grid.Slots, res.Cell)
}

// Flush implements the History seam's barrier. Every fold is published as
// it lands and nothing is written to disk, so there is nothing to flush;
// it only reports ErrClosed after Close.
func (l *Learner) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return nil
}

// Close shuts the learner. Further appends return ErrClosed; reads keep
// serving the final published table.
func (l *Learner) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Stats is the learner's counter snapshot; every field reads the same
// registry collector /metrics renders.
type Stats struct {
	Appends     int64 `json:"appends"`  // AppendSlots batches applied
	Observes    int64 `json:"observes"` // (spot, slot, day) cells folded
	WeightFloor int64 `json:"weight"`   // Σ profile weight, floored (confidence gauge)
}

// Stats snapshots the collectors.
func (l *Learner) Stats() Stats {
	return Stats{
		Appends:     l.met.appends.Value(),
		Observes:    l.met.observes.Value(),
		WeightFloor: l.met.weight.Value(),
	}
}
