package clean

import (
	"sort"

	"taxiqueue/internal/mdt"
)

// Streamer is the record-at-a-time form of Clean for live ingestion: it
// drives the same §6.1.1 rules (GPS frame, duplicates, PAYMENT-FREE-PAYMENT
// improper states) over an endless feed. Push returns the records whose
// fate is now decided; FREE records that follow a PAYMENT are held until a
// later record proves them legitimate (they are then released in arrival
// order) or proves them the clock-sync bug (they are silently dropped).
// Feeding every record of a dataset through Push and then Flush yields
// exactly the batch Clean's statistics and, per taxi, exactly its survivor
// sequence; globally a released record may trail other taxis' later
// records by the length of its hold (a few records).
//
// A Streamer is not safe for concurrent use; shard the feed by taxi ID (all
// state is per taxi, so any taxi-preserving partition cleans identically).
type Streamer struct {
	c   *cleaner[pendRec]
	seq int          // arrival index of the next record, for ordered Flush
	buf []mdt.Record // Push's return buffer, valid until the next Push
}

// pendRec is a held copy of a record plus its arrival index.
type pendRec struct {
	rec mdt.Record
	seq int
}

// NewStreamer returns a streaming cleaner with cfg's rules.
func NewStreamer(cfg Config) *Streamer {
	return &Streamer{c: newCleaner(cfg, func(p *pendRec) *mdt.Record { return &p.rec })}
}

// Stats returns the running removal statistics. Records still held pending
// are counted in neither Output nor the removal classes yet.
func (s *Streamer) Stats() Stats { return s.c.stats }

// PendingFor returns how many of taxi id's records are currently held
// undecided. Live ingestion consults it before deduplicating a re-sent
// record: an exact duplicate is a state signal to the cleaner (it resolves
// a held PAYMENT-FREE tail) whenever records are pending, so only
// pending-free taxis may be deduplicated upstream.
func (s *Streamer) PendingFor(id string) int {
	if t := s.c.taxis[id]; t != nil {
		return len(t.held)
	}
	return 0
}

// Push feeds one record (time-ordered per taxi) and returns the records now
// known to survive, in arrival order. The returned slice is reused by the
// next Push.
func (s *Streamer) Push(r mdt.Record) []mdt.Record {
	f, resolved, improper := s.c.step(&r, pendRec{rec: r, seq: s.seq})
	s.seq++
	s.buf = s.buf[:0]
	if !improper {
		for _, p := range resolved {
			s.buf = append(s.buf, p.rec)
		}
	}
	if f == survives {
		s.buf = append(s.buf, r)
	}
	return s.buf
}

// Flush releases every record still held pending, in arrival order: an
// unresolved PAYMENT-FREE tail at end of feed is kept, exactly as the batch
// Clean keeps it. The result is the caller's. The Streamer keeps no held
// storage afterwards and remains usable.
func (s *Streamer) Flush() []mdt.Record {
	var held []pendRec
	s.c.end(func(h []pendRec) { held = append(held, h...) })
	// Arrival order across taxis (end visits them in map order).
	sort.Slice(held, func(a, b int) bool { return held[a].seq < held[b].seq })
	out := make([]mdt.Record, len(held))
	for i, p := range held {
		out[i] = p.rec
	}
	s.buf = nil
	return out
}
