package clean

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

// cleanDigest is a sha256 over every field of every survivor, in the order
// given (time in Unix nanoseconds, taxi ID, the bits of lat, lon and speed,
// state), and the Stats. Two cleanings with the same digest kept the same
// records in the same order and counted the same removals.
func cleanDigest(recs []mdt.Record, st Stats) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range recs {
		u64(uint64(r.Time.UnixNano()))
		u64(uint64(len(r.TaxiID)))
		h.Write([]byte(r.TaxiID))
		u64(math.Float64bits(r.Pos.Lat))
		u64(math.Float64bits(r.Pos.Lon))
		u64(math.Float64bits(r.Speed))
		u64(uint64(r.State))
	}
	fmt.Fprintf(h, "%+v", st)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCleanGoldenDays pins what the cleaner keeps of two simulated faulty
// days: Clean and Compact must give the batch digest, and Push+Flush the
// live one (a released FREE may trail other taxis' later records, so the
// live order differs from the batch order). A change to any §6.1.1 rule,
// or to the order either form emits, changes a digest.
func TestCleanGoldenDays(t *testing.T) {
	for _, tc := range []struct {
		name        string
		heavy       bool // skipped under -short
		cfg         sim.Config
		batch, live string
	}{
		{
			// The day queued simulates and cleans at start-up.
			name:  "bootstrap-day",
			heavy: true,
			cfg:   sim.Config{Seed: 1, City: citymap.Generate(1, 0.25), InjectFaults: true},
			batch: "5365e3d6ced0e5db00280940e9a6937f0d637dfe0abc7e67ed9a07142ba47e36",
			live:  "6ba11c27d6669905cca18117e7c57c8a67106f3f36020b5608e23edb28e2b220",
		},
		{
			name:  "seed-7",
			cfg:   sim.Config{Seed: 7, City: citymap.Generate(7, 0.1), InjectFaults: true},
			batch: "97990666468924f67fd6411040c71e3eaa60b253e5763054fe133fde135ed773",
			live:  "1edc302de6dec0cdc05bbceaeedb6ca9412d43de90507923f1bdcb13a538657a",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("simulates a heavy day; skipped under -short")
			}
			day := sim.Run(tc.cfg).Records
			got, st := Clean(day, islandCfg())
			if d := cleanDigest(got, st); d != tc.batch {
				t.Errorf("Clean digest %s, want %s (%d records, %v)", d, tc.batch, len(day), st)
			}
			live, lst, _ := runStreamer(day)
			if d := cleanDigest(live, lst); d != tc.live {
				t.Errorf("Push+Flush digest %s, want %s (%v)", d, tc.live, lst)
			}
			got, st = Compact(day, islandCfg())
			if d := cleanDigest(got, st); d != tc.batch {
				t.Errorf("Compact digest %s, want %s (%v)", d, tc.batch, st)
			}
		})
	}
}
