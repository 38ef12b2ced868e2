package forecast

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/history"
)

// sameTables compares every profile cell of two learners exactly.
func sameTables(t *testing.T, a, b *Learner) {
	t.Helper()
	ta, tb := a.Table(), b.Table()
	if ta.Spots() != tb.Spots() || ta.grid.Slots != tb.grid.Slots {
		t.Fatalf("table shapes differ: %dx%d vs %dx%d", ta.Spots(), ta.grid.Slots, tb.Spots(), tb.grid.Slots)
	}
	for spot := 0; spot < ta.Spots(); spot++ {
		for j := 0; j < ta.grid.Slots; j++ {
			if pa, pb := ta.profiles[spot][j], tb.profiles[spot][j]; pa != pb {
				t.Fatalf("profile (%d, %d) differs:\n  %+v\n  %+v", spot, j, pa, pb)
			}
		}
	}
}

// historyConfig builds a history store config matching testConfig's grid
// and spot count.
func historyConfig(t *testing.T, nspots int) history.Config {
	spots := make([]core.QueueSpot, nspots)
	ths := make([]core.Thresholds, nspots)
	for i := range spots {
		spots[i] = core.QueueSpot{
			Pos:  geo.Point{Lat: 1.28 + 0.01*float64(i), Lon: 103.8},
			Zone: citymap.Central,
		}
		ths[i] = testThresholds()
	}
	return history.Config{
		Grid:       testGrid(),
		Spots:      spots,
		Thresholds: ths,
		Amplify:    core.PaperAmplification,
		Dir:        t.TempDir(),
	}
}

// fillHistoryDays records seeded days into the history store. Features
// must round-trip the store's bit-exact encoding, so they are drawn from
// the count-derivable shapes the encoder preserves exactly... simplest:
// whole-second durations and integral counts.
func fillHistoryDays(t *testing.T, h *history.Store, days int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	slotSec := h.Grid().SlotLen.Seconds()
	for day := 0; day < days; day++ {
		type rec struct {
			f core.SlotFeatures
			l core.QueueType
		}
		cells := make(map[[2]int]rec)
		for spot := 0; spot < h.Spots(); spot++ {
			for j := 0; j < h.Grid().Slots; j++ {
				if rng.Float64() < 0.5 {
					continue
				}
				f := core.SlotFeatures{
					TWait: time.Duration(1+rng.Int63n(900)) * time.Second,
					NArr:  float64(1 + rng.Intn(40)),
					TDep:  time.Duration(1+rng.Int63n(300)) * time.Second,
					NDep:  float64(1 + rng.Intn(50)),
				}
				f.QLen = f.TWait.Seconds() * (f.NArr / slotSec)
				l := core.Classify([]core.SlotFeatures{f}, testThresholds())[0]
				cells[[2]int{spot, j}] = rec{f, l}
			}
		}
		err := h.AppendSlots(day, 0, h.Grid().Slots, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
			if r, ok := cells[[2]int{spot, slot}]; ok {
				return r.f, r.l
			}
			return core.SlotFeatures{}, core.Unidentified
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartRecover: profiles are derived state, so a restart is a
// fresh learner backfilled from the history store. Drop a learner without
// Close (a kill), rebuild one from history: the table must be
// bit-identical, and learning must continue from the per-cell day
// watermarks (a replay of a recorded day is still a no-op).
func TestKillRestartRecover(t *testing.T) {
	h, err := history.Open(historyConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	fillHistoryDays(t, h, 4, 42)
	l, err := Open(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BackfillHistory(h); err != nil {
		t.Fatal(err)
	}
	// No Close: the history store is the only durable image.

	r, err := Open(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.BackfillHistory(h); err != nil {
		t.Fatal(err)
	}
	sameTables(t, l, r)

	// Replaying recorded days into the rebuilt learner must not move it.
	before := r.Table().profiles[2][9]
	if err := r.BackfillHistory(h); err != nil {
		t.Fatal(err)
	}
	if after := r.Table().profiles[2][9]; after != before {
		t.Fatalf("replay moved a rebuilt profile:\n  %+v\n  %+v", before, after)
	}
	// And a genuinely new day must still fold: day 9 after day 3 decays
	// the old weight by β^6 and adds 1.
	appendUniform(t, r, 9, c3Feats(), core.C3)
	want := before.Weight*math.Pow(0.7, 6) + 1
	if w := r.Table().profiles[2][9].Weight; math.Abs(w-want) > 1e-9 {
		t.Fatalf("new day fold weight %v, want %v", w, want)
	}
}

// TestBackfillMatchesOnline: seeding a fresh learner from the history
// store must produce exactly the table an online learner built from the
// same feed — backfill and live are the same fold.
func TestBackfillMatchesOnline(t *testing.T) {
	h, err := history.Open(historyConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	fillHistoryDays(t, h, 3, 21)

	online, err := Open(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer online.Close()
	for _, day := range h.Days() {
		wm := h.Watermark(day)
		bySpot := make([][]history.Point, 4)
		for spot := 0; spot < 4; spot++ {
			bySpot[spot] = h.Series(spot, h.TimeOf(day, 0), h.TimeOf(day, wm))
		}
		err := online.AppendSlots(day, 0, wm, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
			return bySpot[spot][slot].Feats, bySpot[spot][slot].Label
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	seeded, err := Open(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer seeded.Close()
	if err := seeded.BackfillHistory(h); err != nil {
		t.Fatal(err)
	}
	sameTables(t, seeded, online)
}
