package transition

import (
	"math"
	"strings"
	"testing"

	"taxiqueue/internal/core"
)

func TestCountAndNormalize(t *testing.T) {
	var m Matrix
	m.Count([]core.QueueType{core.C4, core.C4, core.C1, core.C1, core.C4})
	// Transitions: C4->C4, C4->C1, C1->C1, C1->C4.
	if m[core.C4][core.C4] != 1 || m[core.C4][core.C1] != 1 ||
		m[core.C1][core.C1] != 1 || m[core.C1][core.C4] != 1 {
		t.Fatalf("counts wrong: %v", m)
	}
	p := m.Normalize()
	if p[core.C4][core.C4] != 0.5 || p[core.C4][core.C1] != 0.5 {
		t.Fatalf("normalized row wrong: %v", p[core.C4])
	}
	// Unobserved rows are self-absorbing.
	if p[core.C2][core.C2] != 1 {
		t.Fatalf("empty row not identity: %v", p[core.C2])
	}
	// Every row sums to 1.
	for a := 0; a < numTypes; a++ {
		sum := 0.0
		for b := 0; b < numTypes; b++ {
			sum += p[a][b]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", a, sum)
		}
	}
}

func TestCountEmptyAndSingle(t *testing.T) {
	var m Matrix
	m.Count(nil)
	m.Count([]core.QueueType{core.C1})
	for a := 0; a < numTypes; a++ {
		for b := 0; b < numTypes; b++ {
			if m[a][b] != 0 {
				t.Fatal("transitions counted from empty/single sequences")
			}
		}
	}
}

func TestReportSlotMode(t *testing.T) {
	r := NewReport(4)
	r.AddDay([]core.QueueType{core.C4, core.C1, core.C1, core.C4})
	r.AddDay([]core.QueueType{core.C4, core.C1, core.C2, core.C4})
	r.AddDay([]core.QueueType{core.C3, core.C1, core.C2, core.C4})
	want := []core.QueueType{core.C4, core.C1, core.C2, core.C4}
	for j, w := range want {
		if r.SlotMode[j] != w {
			t.Errorf("slot %d mode = %v, want %v", j, r.SlotMode[j], w)
		}
	}
	if r.Days != 3 {
		t.Fatalf("Days = %d", r.Days)
	}
}

func TestTypicalDayMergesRanges(t *testing.T) {
	r := NewReport(6)
	r.AddDay([]core.QueueType{core.C4, core.C4, core.C1, core.C1, core.C1, core.C4})
	out := r.TypicalDay(30)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("typical day has %d ranges, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "00:00-01:00 C4") {
		t.Errorf("first range = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "01:00-02:30 C1") {
		t.Errorf("second range = %q", lines[1])
	}
}

func TestPersistence(t *testing.T) {
	r := NewReport(5)
	r.AddDay([]core.QueueType{core.C1, core.C1, core.C1, core.C2, core.C2})
	p := r.Persistence()
	// C1: 2 self-transitions of 3 exits... transitions from C1: C1->C1 x2,
	// C1->C2 x1 => persistence 2/3. C2: 1 of 1 => 1.
	if math.Abs(p[core.C1]-2.0/3) > 1e-9 {
		t.Errorf("C1 persistence = %g, want 2/3", p[core.C1])
	}
	if p[core.C2] != 1 {
		t.Errorf("C2 persistence = %g, want 1", p[core.C2])
	}
}

func TestMatrixString(t *testing.T) {
	var m Matrix
	m.Count([]core.QueueType{core.C1, core.C2})
	s := m.Normalize().String()
	if !strings.Contains(s, "C1") || !strings.Contains(s, "Unid") {
		t.Fatalf("matrix rendering incomplete:\n%s", s)
	}
}
