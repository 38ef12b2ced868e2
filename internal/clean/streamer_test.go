package clean

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// runStreamer pushes feed through a Streamer and flushes, collecting every
// released survivor.
func runStreamer(feed []mdt.Record) ([]mdt.Record, Stats, *Streamer) {
	s := NewStreamer(islandCfg())
	var out []mdt.Record
	for _, r := range feed {
		out = append(out, s.Push(r)...)
	}
	out = append(out, s.Flush()...)
	return out, s.Stats(), s
}

// byTaxi groups records into per-taxi sequences preserving order.
func byTaxi(recs []mdt.Record) map[string][]mdt.Record {
	out := map[string][]mdt.Record{}
	for _, r := range recs {
		out[r.TaxiID] = append(out[r.TaxiID], r)
	}
	return out
}

// pending returns how many of feed's records s holds undecided.
func pending(s *Streamer, feed []mdt.Record) int {
	n := 0
	for id := range byTaxi(feed) {
		n += s.PendingFor(id)
	}
	return n
}

// streamerMatchesClean checks Push+Flush against Clean on one feed: the
// same Stats and, per taxi, the same survivor sequence (global order may
// differ for records held pending), with nothing left pending.
func streamerMatchesClean(t *testing.T, feed []mdt.Record) {
	t.Helper()
	want, wantStats := Clean(feed, islandCfg())
	got, gotStats, s := runStreamer(feed)
	if gotStats != wantStats {
		t.Fatalf("stats: got %+v want %+v", gotStats, wantStats)
	}
	wantSeq, gotSeq := byTaxi(want), byTaxi(got)
	if len(gotSeq) != len(wantSeq) {
		t.Fatalf("taxis: got %d want %d", len(gotSeq), len(wantSeq))
	}
	for id, ws := range wantSeq {
		gs := gotSeq[id]
		if len(gs) != len(ws) {
			t.Fatalf("taxi %s: got %d survivors want %d", id, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("taxi %s record %d differs: got %v want %v", id, i, gs[i], ws[i])
			}
		}
	}
	if n := pending(s, feed); n != 0 {
		t.Fatalf("%d records pending after Flush", n)
	}
}

// TestStreamerMatchesBatch: Push+Flush over any feed must yield exactly the
// statistics of the batch Clean and, per taxi, exactly its survivor
// sequence.
func TestStreamerMatchesBatch(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		streamerMatchesClean(t, randomFeed(rand.New(rand.NewSource(seed)), int(size)%700))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// faultFeed turns each byte into one record of one of three taxis, time-
// ordered per taxi: bits 0-1 pick the state (FREE, PAYMENT, POB, ONCALL),
// bits 2-3 the taxi (3 is taxi 0), bit 4 puts the fix out of frame, and
// bit 5 makes the record an exact repeat of its taxi's previous one. Over
// four states instead of all eleven, holds, duplicates of held FREEs and
// duplicate PAYMENTs while FREEs are held are common.
func faultFeed(data []byte) []mdt.Record {
	states := [4]mdt.State{mdt.Free, mdt.Payment, mdt.POB, mdt.OnCall}
	var prev [3]*mdt.Record
	feed := make([]mdt.Record, 0, len(data))
	for i, b := range data {
		k := int(b>>2&3) % 3
		r := rec(string(rune('A'+k)), i, states[b&3], inTown)
		if b&16 != 0 {
			r.Pos = geo.Point{Lat: 0.2, Lon: 100}
		}
		if b&32 != 0 && prev[k] != nil {
			r = *prev[k]
		}
		feed = append(feed, r)
		prev[k] = &feed[len(feed)-1]
	}
	return feed
}

// FuzzStreamerMatchesClean: on feeds dense in every fault class, Compact
// is Clean done in place and Push+Flush is Clean record by record.
func FuzzStreamerMatchesClean(f *testing.F) {
	const (
		free, payment, pob = 0, 1, 2
		taxiB, out, repeat = 4, 16, 32
	)
	f.Add([]byte{pob, free | out, free, free | repeat, pob})                         // GPS outlier, duplicate
	f.Add([]byte{pob, payment, free, payment, free, pob})                            // improper state
	f.Add([]byte{payment, free, free | repeat, taxiB | payment, free | repeat, pob}) // held FREE repeated
	f.Add([]byte{payment, free, payment | taxiB, payment, payment | repeat, free})   // PAYMENT that drops a hold, repeated
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := faultFeed(data)
		streamerMatchesClean(t, feed)
		compactMatchesClean(t, feed)
	})
}

// TestStreamerSurvivorsOrdered: releases preserve per-taxi arrival order
// (the contract the ingest WAL append relies on).
func TestStreamerSurvivorsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feed := randomFeed(rng, 500)
	got, _, _ := runStreamer(feed)
	last := map[string]int{}
	for i, r := range got {
		if j, ok := last[r.TaxiID]; ok && got[j].Time.After(r.Time) {
			t.Fatalf("taxi %s: record %d at %v before record %d at %v",
				r.TaxiID, i, r.Time, j, got[j].Time)
		}
		last[r.TaxiID] = i
	}
}

// TestStreamerPendingVisibility: a FREE after a PAYMENT is held, and the
// hold is observable via PendingFor (live ingestion consults it before
// deduplicating a re-sent PAYMENT).
func TestStreamerPendingVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	feed := randomFeed(rng, 300)
	s := NewStreamer(islandCfg())
	sawPending := false
	for _, r := range feed {
		s.Push(r)
		if s.PendingFor(r.TaxiID) > 0 {
			sawPending = true
		}
	}
	s.Flush()
	if n := pending(s, feed); n != 0 {
		t.Fatalf("pending %d after flush", n)
	}
	if !sawPending {
		t.Skip("feed never held a record; widen the generator")
	}
}

// TestStreamerKeepsNothingAfterFlush: once Flush has released every hold,
// the Streamer retains none of the storage the holds and the release took.
func TestStreamerKeepsNothingAfterFlush(t *testing.T) {
	const taxis, holds = 200, 500
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	s := NewStreamer(islandCfg())
	for k := 0; k < taxis; k++ {
		id := fmt.Sprintf("T%03d", k)
		s.Push(rec(id, 0, mdt.Payment, inTown))
		for j := 1; j <= holds; j++ {
			s.Push(rec(id, j, mdt.Free, inTown))
		}
	}
	if n := len(s.Flush()); n != taxis*holds {
		t.Fatalf("Flush released %d records, want %d", n, taxis*holds)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	kept := int64(ms.HeapAlloc) - before
	runtime.KeepAlive(s)
	if kept > 1<<20 {
		t.Fatalf("the Streamer retains %.1f MB after Flush, want < 1 MB", float64(kept)/(1<<20))
	}
}
