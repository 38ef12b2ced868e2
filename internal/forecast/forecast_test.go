package forecast

import (
	"math"
	"testing"
	"time"

	"taxiqueue/internal/core"
)

func testGrid() core.SlotGrid {
	return core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
}

func testThresholds() core.Thresholds {
	return core.Thresholds{
		EtaWait: 5 * time.Minute, EtaDep: time.Minute,
		TauArr: 6, TauDep: 30, EtaDur: 27 * time.Minute, TauRatio: 0.5,
	}
}

func testConfig(nspots int) Config {
	ths := make([]core.Thresholds, nspots)
	for i := range ths {
		ths[i] = testThresholds()
	}
	return Config{Grid: testGrid(), Spots: nspots, Thresholds: ths}
}

// c3Feats is a saturated taxi-queue cell: L̄ ≥ 1 with slow, sparse
// departures — classifies C3 and is far outside M/M/c stability.
func c3Feats() core.SlotFeatures {
	return core.SlotFeatures{
		TWait: 10 * time.Minute, NArr: 9, QLen: 3,
		TDep: 4 * time.Minute, NDep: 6,
	}
}

// c2Feats is a passenger-consuming cell: L̄ < 1, many arrivals, short
// waits — classifies C2 — in a light, stable rate regime.
func c2Feats() core.SlotFeatures {
	return core.SlotFeatures{
		TWait: 30 * time.Second, NArr: 18, QLen: 0.3,
		TDep: 20 * time.Second, NDep: 80,
	}
}

// appendUniform folds one day where every slot of every spot observes f.
func appendUniform(t *testing.T, l *Learner, day int, f core.SlotFeatures, label core.QueueType) {
	t.Helper()
	err := l.AppendSlots(day, 0, l.Grid().Slots, func(_, _ int) (core.SlotFeatures, core.QueueType) {
		return f, label
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForecastUnobserved(t *testing.T) {
	l, err := Open(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f, ok := l.Table().Forecast(0, testGrid().Start.Add(3*time.Hour))
	if !ok {
		t.Fatal("in-grid instant not ok")
	}
	if f.Source != SourceNone || f.Weight != 0 {
		t.Fatalf("unobserved slot: source %v weight %v", f.Source, f.Weight)
	}
	// The label must be the synthesized empty context, exactly what the
	// engine would classify for a zero feature tuple.
	want := core.Classify([]core.SlotFeatures{{}}, testThresholds())[0]
	if f.Label != want {
		t.Fatalf("unobserved label %v, want empty context %v", f.Label, want)
	}
	if f.QLen != 0 || f.Wait != 0 {
		t.Fatalf("unobserved slot forecast numbers %v %v", f.QLen, f.Wait)
	}

	if _, ok := l.Table().Forecast(0, testGrid().Start.Add(-time.Second)); ok {
		t.Fatal("pre-grid instant answered ok")
	}
	if _, ok := l.Table().Forecast(2, testGrid().Start); ok {
		t.Fatal("out-of-range spot answered ok")
	}
	if _, ok := l.Table().Forecast(-1, testGrid().Start); ok {
		t.Fatal("negative spot answered ok")
	}
}

func TestForecastEmpiricalUnstableRegime(t *testing.T) {
	l, err := Open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f3 := c3Feats()
	for day := 0; day < 3; day++ {
		appendUniform(t, l, day, f3, core.C3)
	}
	// Evaluate ten days out: slot-of-day profiles answer any future day.
	fc, ok := l.Table().Forecast(0, testGrid().Start.Add(10*24*time.Hour+5*time.Hour))
	if !ok {
		t.Fatal("future instant not ok")
	}
	if fc.Day != 10 || fc.Slot != 10 {
		t.Fatalf("located (day %d, slot %d), want (10, 10)", fc.Day, fc.Slot)
	}
	if fc.Source != SourceEmpirical {
		t.Fatalf("saturated regime source %v, want empirical", fc.Source)
	}
	if fc.Label != core.C3 {
		t.Fatalf("label %v, want C3", fc.Label)
	}
	// All observations identical → the EW means are exact.
	if math.Abs(fc.QLen-f3.QLen) > 1e-9 {
		t.Fatalf("QLen %v, want %v", fc.QLen, f3.QLen)
	}
	if d := fc.Wait - f3.TWait; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("Wait %v, want %v", fc.Wait, f3.TWait)
	}
	if fc.Weight < 1.5 {
		t.Fatalf("weight %v after 3 folded days", fc.Weight)
	}
}

func TestForecastModelStableRegime(t *testing.T) {
	cfg := testConfig(1)
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f2 := c2Feats()
	for day := 0; day < 3; day++ {
		appendUniform(t, l, day, f2, core.C2)
	}
	fc, ok := l.Table().Forecast(0, testGrid().Start.Add(26*time.Hour))
	if !ok {
		t.Fatal("not ok")
	}
	if fc.Source != SourceModel {
		t.Fatalf("stable light regime source %v, want model", fc.Source)
	}
	if fc.Label != core.C2 {
		t.Fatalf("label %v, want C2", fc.Label)
	}
	// The wait must be exactly the Erlang-C answer for the learned rates;
	// the queue length stays the EW empirical mean.
	slotSec := testGrid().SlotLen.Seconds()
	q := MMc{
		Lambda:  f2.NArr / slotSec,
		Mu:      1 / (f2.TDep.Seconds() * float64(servers)),
		Servers: servers,
	}
	if !q.Stable() {
		t.Fatal("fixture regime is not stable — test is miswired")
	}
	wq, err := q.Wq()
	if err != nil {
		t.Fatal(err)
	}
	if fc.Wait != wq {
		t.Fatalf("Wait %v, want Erlang-C %v", fc.Wait, wq)
	}
	if math.Abs(fc.QLen-f2.QLen) > 1e-9 {
		t.Fatalf("QLen %v, want empirical mean %v", fc.QLen, f2.QLen)
	}
}

// TestModelNeedsWeight: one observed day is not enough confidence for the
// model path, even in a stable regime.
func TestModelNeedsWeight(t *testing.T) {
	l, err := Open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendUniform(t, l, 0, c2Feats(), core.C2)
	fc, _ := l.Table().Forecast(0, testGrid().Start.Add(time.Hour))
	if fc.Source != SourceModel && fc.Source != SourceEmpirical {
		t.Fatalf("source %v", fc.Source)
	}
	if fc.Source == SourceModel {
		t.Fatalf("model answered at weight %v < minModelWeight", fc.Weight)
	}
}

// TestAppendIdempotent: re-appending an already-folded day must not move
// the profile — the learner sits on a replayable WAL-backed seam.
func TestAppendIdempotent(t *testing.T) {
	l, err := Open(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendUniform(t, l, 0, c3Feats(), core.C3)
	before := l.Table().profiles[1][7]
	for i := 0; i < 4; i++ {
		appendUniform(t, l, 0, c3Feats(), core.C3)
	}
	after := l.Table().profiles[1][7]
	if before != after {
		t.Fatalf("replay moved the profile:\n  %+v\n  %+v", before, after)
	}
	if w := after.Weight; w != 1 {
		t.Fatalf("weight %v after replays of one day, want 1", w)
	}
	// Out-of-order older days are ignored too.
	appendUniform(t, l, 2, c3Feats(), core.C3)
	mid := l.Table().profiles[1][7]
	appendUniform(t, l, 1, c2Feats(), core.C2)
	if got := l.Table().profiles[1][7]; got != mid {
		t.Fatalf("stale day 1 after day 2 moved the profile")
	}
}

// TestEWDecayAndLabelHistogram checks the fold math directly: weights,
// EW means and the decayed label histogram after two distinct days, at
// beta = 0.7.
func TestEWDecayAndLabelHistogram(t *testing.T) {
	l, err := Open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f3, f2 := c3Feats(), c2Feats()
	appendUniform(t, l, 0, f3, core.C3)
	appendUniform(t, l, 1, f2, core.C2)
	p := l.Table().profiles[0][0]
	if math.Abs(p.Weight-1.7) > 1e-12 {
		t.Fatalf("weight %v, want 1.7", p.Weight)
	}
	wantNArr := f3.NArr + (f2.NArr-f3.NArr)/1.7
	if math.Abs(p.NArr-wantNArr) > 1e-9 {
		t.Fatalf("NArr %v, want %v", p.NArr, wantNArr)
	}
	if math.Abs(p.LabelW[core.C3]-0.7) > 1e-12 || math.Abs(p.LabelW[core.C2]-1) > 1e-12 {
		t.Fatalf("label histogram %v", p.LabelW)
	}
	// The newer day outweighs the decayed older one.
	fc, _ := l.Table().Forecast(0, testGrid().Start)
	if fc.Label != core.C2 {
		t.Fatalf("label %v, want C2 (newer day wins)", fc.Label)
	}

	// A day gap decays twice: append day 3 (gap 2 from day 1).
	appendUniform(t, l, 3, f2, core.C2)
	p = l.Table().profiles[0][0]
	want := 1.7*0.49 + 1
	if math.Abs(p.Weight-want) > 1e-12 {
		t.Fatalf("weight %v after gap-2 fold, want %v", p.Weight, want)
	}
}

func TestObserveResultSpotMismatch(t *testing.T) {
	l, err := Open(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res := &core.Result{Spots: make([]core.SpotAnalysis, 2)}
	if err := l.ObserveResult(0, res); err == nil {
		t.Fatal("spot-count mismatch accepted")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("zero grid accepted")
	}
	cfg := testConfig(2)
	cfg.Thresholds = cfg.Thresholds[:1]
	if _, err := Open(cfg); err == nil {
		t.Fatal("threshold/spot mismatch accepted")
	}
}

func TestClosedLearner(t *testing.T) {
	l, err := Open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	appendUniform(t, l, 0, c3Feats(), core.C3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
	err = l.AppendSlots(1, 0, 1, func(_, _ int) (core.SlotFeatures, core.QueueType) {
		return core.SlotFeatures{}, core.Unidentified
	})
	if err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	// Reads keep serving the final table.
	if fc, ok := l.Table().Forecast(0, testGrid().Start); !ok || fc.Label != core.C3 {
		t.Fatalf("closed learner read: ok=%v label=%v", ok, fc.Label)
	}
}
