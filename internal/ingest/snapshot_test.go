package ingest

import (
	"testing"
	"time"

	"taxiqueue/internal/core"
)

// TestFinalSnapshot: a batch result published as a snapshot serves every
// in-grid cell as final with exactly the result's features and label, and
// nothing outside the grid.
func TestFinalSnapshot(t *testing.T) {
	const spots, slots = 3, 5
	res := &core.Result{Spots: make([]core.SpotAnalysis, spots)}
	for i := range res.Spots {
		sa := &res.Spots[i]
		// Spot 2 carries a short label row: the missing slots read as
		// Unidentified with zero features, as Result.Cell defines.
		n := slots
		if i == 2 {
			n = 2
		}
		for j := 0; j < n; j++ {
			sa.Labels = append(sa.Labels, core.QueueType(1+(i+j)%4))
			sa.Features = append(sa.Features, core.SlotFeatures{
				TWait: time.Duration(i*10+j) * time.Second, NArr: float64(j), QLen: float64(i),
			})
		}
	}

	snap := FinalSnapshot(spots, slots, res.Cell)
	if snap.FinalBelow != slots || snap.Spots != spots || snap.Slots != slots {
		t.Fatalf("snapshot shape final=%d spots=%d slots=%d, want %d/%d/%d",
			snap.FinalBelow, snap.Spots, snap.Slots, slots, spots, slots)
	}
	if snap.Live() != nil {
		t.Fatalf("batch snapshot carries live spots: %v", snap.Live())
	}
	for i := 0; i < spots; i++ {
		for j := 0; j < slots; j++ {
			f, l, ok := snap.Context(i, j)
			wf, wl := res.Cell(i, j)
			if !ok || f != wf || l != wl {
				t.Fatalf("cell (%d,%d) = (%+v, %v, %v), want (%+v, %v, true)", i, j, f, l, ok, wf, wl)
			}
		}
	}
	for _, c := range [][2]int{{-1, 0}, {spots, 0}, {0, -1}, {0, slots}} {
		if _, l, ok := snap.Context(c[0], c[1]); ok || l != core.Unidentified {
			t.Fatalf("out-of-grid cell %v served (%v, %v)", c, l, ok)
		}
	}
}
