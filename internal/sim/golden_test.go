package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
)

// dayDigest is a sha256 over every field of every record (time in Unix
// nanoseconds, taxi ID, the bits of lat, lon and speed, state), the run's
// Stats and its ground truth (each spot's queue logs, pickups, failed
// bookings and wait sums). Two runs with the same digest produced the same
// day bit for bit.
func dayDigest(out Output) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range out.Records {
		u64(uint64(r.Time.UnixNano()))
		u64(uint64(len(r.TaxiID)))
		h.Write([]byte(r.TaxiID))
		u64(math.Float64bits(r.Pos.Lat))
		u64(math.Float64bits(r.Pos.Lon))
		u64(math.Float64bits(r.Speed))
		u64(uint64(r.State))
	}
	fmt.Fprintf(h, "%+v", out.Stats)
	hashTruth(h, out.Truth, u64)
	return hex.EncodeToString(h.Sum(nil))
}

func hashTruth(h hash.Hash, tr *Truth, u64 func(uint64)) {
	fmt.Fprintf(h, "illegal=%d end=%d", tr.IllegalTransitions, tr.end.UnixNano())
	for _, st := range tr.Spots {
		for _, log := range [][]LenSample{st.TaxiQueueLog, st.PaxQueueLog} {
			u64(uint64(len(log)))
			for _, s := range log {
				u64(uint64(s.Time.UnixNano()))
				u64(uint64(s.Len))
			}
		}
		u64(uint64(len(st.FailedBookings)))
		for _, at := range st.FailedBookings {
			u64(uint64(at.UnixNano()))
		}
		fmt.Fprintf(h, "%d %d %d %d %d %d", st.Pickups, st.BusyPickups,
			st.TaxiWaitTotal, st.TaxiWaitCount, st.PaxWaitTotal, st.PaxWaitCount)
	}
}

// TestGoldenDays pins the simulator's output: any change to event order,
// rng draw order or float arithmetic changes a digest. The digests were
// computed with the binary event heap and the plain Equirect radius tests
// the calendar queue and geo.Within replaced.
func TestGoldenDays(t *testing.T) {
	for _, tc := range []struct {
		name  string
		heavy bool // skipped under -short
		cfg   func() Config
		want  string
	}{
		{
			// The day queued simulates at start-up.
			name:  "bootstrap-day",
			heavy: true,
			cfg: func() Config {
				return Config{Seed: 1, City: citymap.Generate(1, 0.25), InjectFaults: true}
			},
			want: "bb0f256a88630fc31d6797932678e24da917404c93a688680c75382175dc8d12",
		},
		{
			name: "sunday",
			cfg: func() Config {
				return Config{Seed: 7, City: citymap.Generate(7, 0.1),
					Start: time.Date(2026, 1, 11, 0, 0, 0, 0, time.UTC)}
			},
			want: "c746dabbbf9af222385cc0b59011d2b504787768d4058cbdff61ed06dc689357",
		},
		{
			// Ten times the default fleet at a small city: a deep roaming
			// pool for every dispatch scan and many more pending events.
			name:  "surge",
			heavy: true,
			cfg: func() Config {
				city := citymap.Generate(3, 0.05)
				return Config{Seed: 3, City: city, NumTaxis: 10 * DefaultFleet(city), InjectFaults: true}
			},
			want: "6440da7815ce59d7c3dab1cc65f317553474f8021dc0b821d009bf0de739a4ae",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("simulates a heavy day; skipped under -short")
			}
			out := Run(tc.cfg())
			if got := dayDigest(out); got != tc.want {
				t.Fatalf("digest %s, want %s (%d records, stats %+v)", got, tc.want, len(out.Records), out.Stats)
			}
		})
	}
}
