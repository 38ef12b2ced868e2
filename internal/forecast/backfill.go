package forecast

import (
	"fmt"

	"taxiqueue/internal/core"
	"taxiqueue/internal/history"
)

// BackfillHistory folds every recorded day of the history store into the
// profiles, ascending. This is the restart path: profiles are never
// persisted, so a fresh learner backfilled from the history store holds
// the same table as one that learned online the whole time. Per-cell day
// watermarks make the fold idempotent, so backfilling an already
// partially learned table only applies the missing days.
func (l *Learner) BackfillHistory(h *history.Store) error {
	if h.Spots() != l.cfg.Spots {
		return fmt.Errorf("forecast: backfill: history has %d spots, learner has %d",
			h.Spots(), l.cfg.Spots)
	}
	slots := l.cfg.Grid.Slots
	for _, day := range h.Days() {
		wm := h.Watermark(day)
		if wm <= 0 {
			continue
		}
		// One Series call per spot covers the day's final prefix; unstored
		// slots come back synthesized-empty, exactly what the live path
		// would have appended.
		bySpot := make([][]history.Point, l.cfg.Spots)
		for spot := 0; spot < l.cfg.Spots; spot++ {
			pts := h.Series(spot, h.TimeOf(day, 0), h.TimeOf(day, wm))
			if len(pts) != wm {
				return fmt.Errorf("forecast: backfill day %d spot %d: %d points below watermark %d",
					day, spot, len(pts), wm)
			}
			bySpot[spot] = pts
		}
		err := l.AppendSlots(day, 0, min(wm, slots), func(spot, slot int) (core.SlotFeatures, core.QueueType) {
			p := bySpot[spot][slot]
			return p.Feats, p.Label
		})
		if err != nil {
			return err
		}
	}
	return nil
}
