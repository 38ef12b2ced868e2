package ingest

import (
	"testing"
	"time"

	"taxiqueue/internal/chaos"
	"taxiqueue/internal/core"
	"taxiqueue/internal/history"
	"taxiqueue/internal/store"
)

// historyStore opens a history store matching the fixture day's grid and
// spot set.
func historyStore(t testing.TB, d *day, dir string) *history.Store {
	t.Helper()
	s, err := history.Open(history.Config{
		Grid:       d.grid,
		Spots:      d.scfg.Spots,
		Thresholds: d.scfg.Thresholds,
		Amplify:    d.scfg.Amplify,
		Dir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// historyContexts reads every (spot, slot) cell of day 0 back out of the
// store in snapshot() shape.
func historyContexts(t testing.TB, s *history.Store, d *day) ([][]core.QueueType, [][]core.SlotFeatures) {
	t.Helper()
	labels := make([][]core.QueueType, len(d.scfg.Spots))
	feats := make([][]core.SlotFeatures, len(d.scfg.Spots))
	from := d.grid.Start
	to := from.Add(s.Grid().DayLen())
	for i := range labels {
		labels[i] = make([]core.QueueType, d.grid.Slots)
		feats[i] = make([]core.SlotFeatures, d.grid.Slots)
		pts := s.Series(i, from, to)
		if len(pts) != d.grid.Slots {
			t.Fatalf("spot %d: %d history points, want %d", i, len(pts), d.grid.Slots)
		}
		for j, p := range pts {
			labels[i][j] = p.Label
			feats[i][j] = p.Feats
		}
	}
	return labels, feats
}

// TestHistoryMatchesLiveContexts is the live-path equality property: a
// full simulated day fed through the sharded service with a history store
// attached must leave the store holding exactly the snapshot's final
// contexts — every feature byte-for-field, including the synthesized
// empty cells.
func TestHistoryMatchesLiveContexts(t *testing.T) {
	d := getDay(t)
	hist := historyStore(t, d, t.TempDir())
	defer hist.Close()
	cfg := d.serviceConfig()
	cfg.Shards = 4
	cfg.History = hist
	svc := runService(t, cfg, d.raw)
	defer svc.Close()

	wantL, wantF := snapshot(t, svc, d)
	if wm := hist.Watermark(0); wm != d.grid.Slots {
		t.Fatalf("history watermark %d after Flush, want %d", wm, d.grid.Slots)
	}
	gotL, gotF := historyContexts(t, hist, d)
	sameContexts(t, "history vs live snapshot", gotL, gotF, wantL, wantF)

	if st := hist.Stats(); st.Records == 0 || st.Blocks == 0 || st.Bytes == 0 {
		t.Fatalf("degenerate history stats after a full day: %+v", st)
	}
}

// TestHistoryCrashRestartRecovers is the kill-and-restart acceptance
// scenario: feed half the day with WAL + history durability on, abort
// without flushing, tear the history file's tail, and restart. Recovery
// must keep only clean blocks (all matching the fault-free run), WAL
// replay must idempotently re-fill the gap, and finishing the feed must
// leave the history identical to an uninterrupted run.
func TestHistoryCrashRestartRecovers(t *testing.T) {
	d := getDay(t)
	base := d.serviceConfig()
	base.Shards = 4

	// Fault-free reference.
	refHist := historyStore(t, d, t.TempDir())
	defer refHist.Close()
	refCfg := base
	refCfg.WALDir = t.TempDir()
	refCfg.History = refHist
	ref := runService(t, refCfg, d.raw)
	wantL, wantF := snapshot(t, ref, d)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Crashed run: a quarter of the feed and a history barrier, which
	// seals the final slots so far into durable blocks (a half day fills
	// none of the store's 512-record blocks), then another quarter,
	// checkpoint, kill without flushing.
	histDir := t.TempDir()
	crashHist := historyStore(t, d, histDir)
	crashCfg := base
	crashCfg.WALDir = t.TempDir()
	crashCfg.History = crashHist
	svc, err := NewService(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	k := len(d.raw) / 2
	feed(t, svc, d.raw[:k/2])
	// At the grid start the barrier closes no slot.
	if err := svc.FlushUntil(d.grid.Start); err != nil {
		t.Fatal(err)
	}
	feed(t, svc, d.raw[k/2:k])
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if crashHist.Stats().Blocks == 0 {
		t.Fatal("half a day sealed no history blocks; the tear below would be vacuous")
	}
	svc.Abort() // no Flush: pending history appends die with the process

	// The crash also tears the history file's tail.
	gens, err := store.LogFiles(histDir)
	if err != nil || len(gens) == 0 {
		t.Fatalf("no history log files (%v)", err)
	}
	if err := chaos.TearTail(gens[len(gens)-1], 37); err != nil {
		t.Fatal(err)
	}

	// Restart: history recovery keeps the clean prefix...
	recHist := historyStore(t, d, histDir)
	defer recHist.Close()
	if st := recHist.Stats(); st.Truncations == 0 {
		t.Fatalf("torn tail recovered without counting a truncation: %+v", st)
	}
	wm := recHist.Watermark(0)
	if wm >= d.grid.Slots {
		t.Fatalf("watermark %d survived the crash + tear", wm)
	}
	// ...and every cell it still serves matches the fault-free run.
	until := d.grid.Start.Add(time.Duration(wm) * d.grid.SlotLen)
	for i := range d.scfg.Spots {
		pts := recHist.Series(i, d.grid.Start, until)
		if len(pts) != wm {
			t.Fatalf("spot %d: %d recovered points below watermark %d", i, len(pts), wm)
		}
		for _, p := range pts {
			if p.Label != wantL[i][p.Slot] || p.Feats != wantF[i][p.Slot] {
				t.Fatalf("recovered block content diverges at spot %d slot %d: (%v, %+v) vs (%v, %+v)",
					i, p.Slot, p.Label, p.Feats, wantL[i][p.Slot], wantF[i][p.Slot])
			}
		}
	}

	// WAL replay re-derives the torn-off slots (history appends are
	// idempotent, so the replayed prefix cannot double-record), and the
	// rest of the feed completes the day.
	crashCfg.History = recHist
	svc2, err := NewService(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	feed(t, svc2, d.raw[k:])
	if err := svc2.Flush(); err != nil {
		t.Fatal(err)
	}
	gotL, gotF := snapshot(t, svc2, d)
	sameContexts(t, "recovered service", gotL, gotF, wantL, wantF)
	if wm := recHist.Watermark(0); wm != d.grid.Slots {
		t.Fatalf("history watermark %d after recovery + full feed", wm)
	}
	hL, hF := historyContexts(t, recHist, d)
	sameContexts(t, "recovered history vs fault-free", hL, hF, wantL, wantF)
	if got, want := recHist.Stats().Records, refHist.Stats().Records; got < want {
		t.Fatalf("recovered history holds %d records, fault-free run holds %d", got, want)
	}
}
