package ingest

import (
	"fmt"
	"testing"
)

// benchFeed pushes b.N records through svc, feeding the fixture day and —
// because the feed must stay time-ordered — swapping in a fresh service
// (off the clock) whenever the day wraps. One op is one record, so
// records/sec = b.N/elapsed.
func benchFeed(b *testing.B, d *day, cfg Config) {
	svc, err := NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := len(d.cleaned)
		if n > b.N-done {
			n = b.N - done
		}
		feed(b, svc, d.cleaned[:n])
		done += n
		// Barrier: drain the queues so the timer covers processing, not
		// just enqueueing (a flush at grid start closes nothing). With the
		// WAL on, each shard's commit here puts one fsync per fixture day
		// on the clock.
		if err := svc.FlushUntil(d.grid.Start); err != nil {
			b.Fatal(err)
		}
		if done < b.N {
			b.StopTimer()
			if err := svc.Close(); err != nil {
				b.Fatal(err)
			}
			if cfg.WALDir != "" {
				cfg.WALDir = b.TempDir() // don't replay the previous day
			}
			if svc, err = NewService(cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIngest measures end-to-end throughput of the full accept →
// clean → engine path (durability off) at several shard counts.
func BenchmarkIngest(b *testing.B) {
	d := getDay(b)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := d.serviceConfig()
			cfg.Shards = shards
			benchFeed(b, d, cfg)
		})
	}
}

// BenchmarkIngestDurable is the same path with the WAL enabled, isolating
// the durability overhead.
func BenchmarkIngestDurable(b *testing.B) {
	d := getDay(b)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := d.serviceConfig()
			cfg.Shards = shards
			cfg.WALDir = b.TempDir()
			benchFeed(b, d, cfg)
		})
	}
}
