package core

import (
	"math"
	"testing"
	"time"

	"taxiqueue/internal/mdt"
)

// th is a hand-built threshold set for direct Classify tests.
func testThresholds() Thresholds {
	return Thresholds{
		EtaWait:  60 * time.Second,
		EtaDep:   60 * time.Second,
		TauArr:   30,
		TauDep:   30,
		EtaDur:   27 * time.Minute,
		TauRatio: 0.84,
	}
}

func TestClassifyRoutine1(t *testing.T) {
	th := testThresholds()
	cases := []struct {
		name string
		f    SlotFeatures
		want QueueType
	}{
		{"C2: no taxi queue, many fast arrivals",
			SlotFeatures{QLen: 0.5, NArr: 40, TWait: 30 * time.Second, NDep: 40, TDep: 45 * time.Second}, C2},
		{"C4: no taxi queue, few slow arrivals",
			SlotFeatures{QLen: 0.2, NArr: 3, TWait: 10 * time.Minute, NDep: 3, TDep: 8 * time.Minute}, C4},
		{"C1: taxi queue, many fast departures",
			SlotFeatures{QLen: 3, NArr: 35, TWait: 4 * time.Minute, NDep: 40, TDep: 40 * time.Second}, C1},
		{"C3: taxi queue, few slow departures",
			SlotFeatures{QLen: 2, NArr: 5, TWait: 15 * time.Minute, NDep: 5, TDep: 5 * time.Minute}, C3},
		{"empty slot stays unidentified",
			SlotFeatures{}, Unidentified},
		{"mixed signals stay unidentified (no routine 2 escape)",
			SlotFeatures{QLen: 0.5, NArr: 40, TWait: 10 * time.Minute, NDep: 2, TDep: time.Minute}, Unidentified},
	}
	for _, c := range cases {
		got := Classify([]SlotFeatures{c.f}, th)[0]
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyRoutine2BookingHeavy(t *testing.T) {
	th := testThresholds()
	// Moderate departures spanning most of the slot, with a low
	// FREE-arrival share (booking-dominated): C2 without a taxi queue,
	// C1 with one.
	// TWait below η_wait keeps routine 1's C4 arm from firing first.
	base := SlotFeatures{
		NArr: 6, NDep: 20, TDep: 85 * time.Second, // span = 20*85s = 1700s > 1620s
		TWait: 30 * time.Second,
	}
	noQueue := base
	noQueue.QLen = 0.6
	if got := Classify([]SlotFeatures{noQueue}, th)[0]; got != C2 {
		t.Errorf("routine 2 without taxi queue: got %v, want C2", got)
	}
	withQueue := base
	withQueue.QLen = 1.8
	// With QLen >= 1 routine 1 runs first: NDep=20 < TauDep=30 and
	// TDep=85s >= EtaDep=60s -> C3 by routine 1. Make TDep below EtaDep to
	// dodge routine 1's C3 arm, then routine 2 fires.
	withQueue.TDep = 59 * time.Second
	withQueue.NDep = 28 // 28 < 30: routine 1 C1 arm fails
	// span = 28 * 59s = 1652s > 1620s, NArr/NDep = 6/28 < 0.84.
	if got := Classify([]SlotFeatures{withQueue}, th)[0]; got != C1 {
		t.Errorf("routine 2 with taxi queue: got %v, want C1", got)
	}
}

func TestClassifyRoutine2RequiresSpanAndRatio(t *testing.T) {
	th := testThresholds()
	// Short departure span: stays unidentified.
	shortSpan := SlotFeatures{QLen: 0.5, NArr: 2, NDep: 5, TDep: 70 * time.Second, TWait: 30 * time.Second}
	if got := Classify([]SlotFeatures{shortSpan}, th)[0]; got != Unidentified {
		t.Errorf("short span: got %v, want Unidentified", got)
	}
	// High street ratio (mostly FREE arrivals): stays unidentified.
	highRatio := SlotFeatures{QLen: 0.5, NArr: 25, NDep: 26, TDep: 65 * time.Second, TWait: 30 * time.Second}
	if got := Classify([]SlotFeatures{highRatio}, th)[0]; got != Unidentified {
		t.Errorf("high street ratio: got %v, want Unidentified", got)
	}
}

func TestSelectThresholds(t *testing.T) {
	g := DaySlots(midnight())
	var waits []Wait
	// 10 street waits: 30s, 60s, ..., 300s. Top 20% shortest = {30s, 60s}
	// -> η_wait = 45s.
	for i := 1; i <= 10; i++ {
		waits = append(waits, streetWait(
			midnight().Add(time.Duration(i)*37*time.Minute),
			time.Duration(i)*30*time.Second))
	}
	th := SelectThresholds(ComputeFeatures(waits, g, NoAmplification), g, 0.84)
	if th.EtaWait != 45*time.Second {
		t.Fatalf("EtaWait = %v, want 45s", th.EtaWait)
	}
	if math.Abs(th.TauArr-40) > 1e-9 {
		t.Fatalf("TauArr = %g, want 40 (1800/45)", th.TauArr)
	}
	if th.EtaDur != time.Duration(0.9*float64(30*time.Minute)) {
		t.Fatalf("EtaDur = %v", th.EtaDur)
	}
	if th.TauRatio != 0.84 {
		t.Fatalf("TauRatio = %g", th.TauRatio)
	}
}

func TestSelectThresholdsFloorsDegenerate(t *testing.T) {
	g := DaySlots(midnight())
	// All waits are 1 s: without the floor τ_arr would explode.
	var waits []Wait
	for i := 0; i < 5; i++ {
		waits = append(waits, streetWait(midnight().Add(time.Duration(i)*time.Hour), time.Second))
	}
	th := SelectThresholds(ComputeFeatures(waits, g, NoAmplification), g, 1)
	if th.EtaWait < minEta {
		t.Fatalf("EtaWait = %v below floor", th.EtaWait)
	}
	empty := SelectThresholds(nil, g, 1)
	if empty.EtaWait < minEta || empty.EtaDep < minEta {
		t.Fatalf("empty thresholds below floor: %+v", empty)
	}
}

func TestProportions(t *testing.T) {
	labels := []QueueType{C1, C1, C2, C4, Unidentified}
	p := Proportions(labels)
	if math.Abs(p[C1]-0.4) > 1e-9 || math.Abs(p[C2]-0.2) > 1e-9 {
		t.Fatalf("proportions = %v", p)
	}
	// Multiple sets pool together.
	p2 := Proportions(labels, []QueueType{C3, C3, C3, C3, C3})
	if math.Abs(p2[C3]-0.5) > 1e-9 {
		t.Fatalf("pooled proportions = %v", p2)
	}
	if len(Proportions()) != 0 {
		t.Fatal("empty proportions non-empty")
	}
}

func TestQueueTypeString(t *testing.T) {
	want := map[QueueType]string{C1: "C1", C2: "C2", C3: "C3", C4: "C4", Unidentified: "Unidentified"}
	for q, s := range want {
		if q.String() != s {
			t.Errorf("%d.String() = %q", q, q.String())
		}
	}
}

func TestThresholdsString(t *testing.T) {
	if testThresholds().String() == "" {
		t.Fatal("empty Thresholds.String()")
	}
}

// End-to-end slot semantics: a synthetic day at one spot cycling through
// the four contexts must label each period correctly. The waits model a
// 60%-coverage feed, so the paper's amplification is applied — routine 1's
// saturation bars (τ_arr, τ_dep) are only reachable with it (§6.2.1).
func TestClassifySyntheticDay(t *testing.T) {
	g := DaySlots(midnight())
	var waits []Wait
	add := func(w Wait) { waits = append(waits, w) }

	// 02:00-04:00 (slots 4..7): C4 — 2 taxis/slot waiting ~8 min.
	for slot := 4; slot < 8; slot++ {
		from, _ := g.Bounds(slot)
		add(streetWait(from.Add(5*time.Minute), 8*time.Minute))
		add(streetWait(from.Add(20*time.Minute), 9*time.Minute))
	}
	// 08:00-09:00 (slots 16..17): C2 via routine 2 — booking-dominated
	// departures spanning the slot; the few street arrivals grab taxis
	// fast (their slot-mean waits are the spot's shortest, which is what
	// anchors η_wait).
	c2Wait := map[int]time.Duration{16: 20 * time.Second, 17: 22 * time.Second,
		18: 60 * time.Second, 19: 62 * time.Second}
	for slot := 16; slot < 20; slot++ {
		from, _ := g.Bounds(slot)
		for i := 0; i < 30; i++ {
			start := from.Add(time.Duration(i) * 55 * time.Second)
			if i%4 == 0 {
				add(streetWait(start, c2Wait[slot]))
			} else {
				add(bookingWait(start, time.Minute))
			}
		}
	}
	// 12:00-14:00 (slots 24..27): C1 — taxi queue (waits ~5 min), heavy
	// throughput with ~45 s departure spacing.
	for slot := 24; slot < 28; slot++ {
		from, _ := g.Bounds(slot)
		for i := 0; i < 38; i++ {
			start := from.Add(time.Duration(i) * 45 * time.Second)
			add(Wait{Start: start, End: start.Add(5 * time.Minute), StartState: mdt.Free})
		}
	}
	// 22:00-23:00 (slots 44..45): C3 — taxi queue, few departures far
	// apart (waits ~20 min).
	for slot := 44; slot < 46; slot++ {
		from, _ := g.Bounds(slot)
		for i := 0; i < 4; i++ {
			start := from.Add(time.Duration(i) * 7 * time.Minute)
			add(Wait{Start: start, End: start.Add(20 * time.Minute), StartState: mdt.Free})
		}
	}

	feats := ComputeFeatures(waits, g, PaperAmplification)
	th := SelectThresholds(ComputeFeatures(waits, g, NoAmplification), g, 0.85)
	labels := Classify(feats, th)

	check := func(slots []int, want QueueType) {
		t.Helper()
		for _, j := range slots {
			if labels[j] != want {
				t.Errorf("slot %d: got %v, want %v (feat %+v, th %v)",
					j, labels[j], want, feats[j], th)
			}
		}
	}
	check([]int{5, 6}, C4)
	check([]int{16, 17}, C2)
	check([]int{25, 26}, C1)
	check([]int{44}, C3)
}
