package bench

import (
	"fmt"
	"strconv"
	"time"

	"bip/internal/lts"
	"bip/models"
)

// E16StreamingMemory measures what the streaming verification API buys
// on the E1-class philosopher-rings family: the materialized LTS retains
// every visited state (plus edges and the BFS tree), while the streaming
// deadlock checker retains per-state machinery only for the BFS frontier
// — the peak-frontier column — and per visited state keeps nothing but a
// fixed-width dedup key. Verdicts are identical by construction (the
// streaming differential tests pin them); the table re-checks the
// deadlock verdict per run.
func E16StreamingMemory(maxRings int) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "streaming vs materialized verification memory (deadlock check on K philosopher rings of 4)",
		Headers: []string{"rings", "states", "peak frontier", "retained",
			"materialized time", "streaming time", "verdicts"},
	}
	for k := 1; k <= maxRings; k++ {
		sys, err := models.PhilosopherRings(k, 4)
		if err != nil {
			return nil, err
		}
		ctl, err := models.ControlOnly(sys)
		if err != nil {
			return nil, err
		}

		t0 := time.Now()
		l, err := lts.Explore(ctl, lts.Options{})
		if err != nil {
			return nil, err
		}
		matFree, err := l.DeadlockFree()
		if err != nil {
			return nil, err
		}
		matTime := time.Since(t0)

		t1 := time.Now()
		dl := &lts.DeadlockCheck{}
		stats, err := lts.Stream(ctl, lts.Options{}, dl)
		if err != nil {
			return nil, err
		}
		streamTime := time.Since(t1)

		verdict := "agree: deadlock-free"
		if dl.Found || !dl.Exhaustive || !matFree || stats.States != l.NumStates() {
			verdict = fmt.Sprintf("DIVERGE: mat free=%v stream found=%v exhaustive=%v (%d vs %d states)",
				matFree, dl.Found, dl.Exhaustive, l.NumStates(), stats.States)
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(k),
			strconv.Itoa(l.NumStates()),
			strconv.Itoa(stats.PeakFrontier),
			fmt.Sprintf("%.1f%%", 100*float64(stats.PeakFrontier)/float64(stats.States)),
			ms(matTime),
			ms(streamTime),
			verdict,
		})
	}
	t.Notes = append(t.Notes,
		"peak frontier = in-flight states (admitted, not yet expanded and flushed), the streaming loop's live-state high-water mark (lts.Stats.PeakFrontier)",
		"retained = peak frontier / states: the fraction of the space the streaming checker ever holds materialized; the rest exists only as fixed-width dedup keys")
	return t, nil
}
