package workload

import (
	"fmt"
	"strings"

	"drrs/internal/simtime"
)

// Phase is one segment of a phase-programmable load shape: for the phase's
// duration the offered rate is Config.RatePerSec multiplied by a factor
// interpolated linearly from StartFactor to EndFactor.
type Phase struct {
	Duration    simtime.Duration
	StartFactor float64
	EndFactor   float64
}

// Shape programs how a workload evolves over a run: a sequence of rate
// phases plus optional hot-key drift that migrates the Zipf hot set across
// the key space. The zero Shape is a flat load with a static hot set, which
// keeps every pre-existing scenario byte-identical.
//
// Shapes are pure functions of elapsed time, so a shaped run stays exactly
// as deterministic as a flat one.
type Shape struct {
	// Phases play in order from the start of the run. After the last phase
	// the final EndFactor holds for the rest of the run, unless Loop repeats
	// the program from the beginning.
	Phases []Phase
	Loop   bool

	// HotKeyShiftEvery rotates the Zipf rank→key mapping every interval, so
	// the hottest keys drift through the key space instead of staying pinned
	// to the lowest ranks (0 disables drift).
	HotKeyShiftEvery simtime.Duration
	// HotKeyShiftFraction is the fraction of the key space the hot set moves
	// per shift (default 0.05 when drift is enabled).
	HotKeyShiftFraction float64
}

// minFactor keeps a mis-programmed phase from stalling the generator: the
// tick loop reschedules at period/factor, so factor must stay positive.
const minFactor = 0.01

// IsZero reports whether the shape modulates anything.
func (s Shape) IsZero() bool {
	return len(s.Phases) == 0 && s.HotKeyShiftEvery == 0
}

// FactorAt returns the rate multiplier at elapsed run time el.
func (s Shape) FactorAt(el simtime.Duration) float64 {
	if len(s.Phases) == 0 {
		return 1
	}
	var total simtime.Duration
	for _, p := range s.Phases {
		total += p.Duration
	}
	if total <= 0 {
		return 1
	}
	if s.Loop {
		el = el % total
	} else if el >= total {
		return clampFactor(s.Phases[len(s.Phases)-1].EndFactor)
	}
	for _, p := range s.Phases {
		if el < p.Duration {
			frac := float64(el) / float64(p.Duration)
			return clampFactor(p.StartFactor + float64((p.EndFactor-p.StartFactor)*frac))
		}
		el -= p.Duration
	}
	return clampFactor(s.Phases[len(s.Phases)-1].EndFactor)
}

func clampFactor(f float64) float64 {
	if f < minFactor {
		return minFactor
	}
	return f
}

// MapRank translates a Zipf rank into a key index in [0, keys), applying the
// hot-key drift active at elapsed time el: the whole rank order rotates
// through the key space by HotKeyShiftFraction per HotKeyShiftEvery.
func (s Shape) MapRank(rank int, el simtime.Duration, keys int) int {
	if s.HotKeyShiftEvery <= 0 || keys <= 0 {
		return rank
	}
	frac := s.HotKeyShiftFraction
	if frac <= 0 {
		frac = 0.05
	}
	step := int(frac * float64(keys))
	if step < 1 {
		step = 1
	}
	shifts := int(el / s.HotKeyShiftEvery)
	return (rank + shifts*step) % keys
}

// String renders a compact description for scenario listings.
func (s Shape) String() string {
	if s.IsZero() {
		return "flat"
	}
	var parts []string
	for _, p := range s.Phases {
		if p.StartFactor == p.EndFactor {
			parts = append(parts, fmt.Sprintf("%.2gx@%v", p.StartFactor, p.Duration))
		} else {
			parts = append(parts, fmt.Sprintf("%.2g→%.2gx@%v", p.StartFactor, p.EndFactor, p.Duration))
		}
	}
	out := strings.Join(parts, " ")
	if s.Loop {
		out += " loop"
	}
	if s.HotKeyShiftEvery > 0 {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("drift@%v", s.HotKeyShiftEvery)
	}
	return out
}

// FlashCrowd builds the spike shape: baseline load for quiet, a sudden jump
// to magnitude× for spike, then baseline again (a flash crowd arriving and
// dispersing — the regime where scale-out followed by scale-back pays off).
func FlashCrowd(quiet, spike simtime.Duration, magnitude float64) Shape {
	return Shape{Phases: []Phase{
		{Duration: quiet, StartFactor: 1, EndFactor: 1},
		{Duration: spike, StartFactor: magnitude, EndFactor: magnitude},
		{Duration: quiet, StartFactor: 1, EndFactor: 1},
	}}
}

// Diurnal builds a looping ramp between low× and high× with the given
// period — a compressed day/night cycle of drifting offered load.
func Diurnal(period simtime.Duration, low, high float64) Shape {
	return Shape{
		Phases: []Phase{
			{Duration: period / 2, StartFactor: low, EndFactor: high},
			{Duration: period / 2, StartFactor: high, EndFactor: low},
		},
		Loop: true,
	}
}

// HotKeyDrift builds a flat-rate shape whose Zipf hot set migrates by
// fraction of the key space every interval — the adversarial case for
// placement decisions made at scale time.
func HotKeyDrift(every simtime.Duration, fraction float64) Shape {
	return Shape{HotKeyShiftEvery: every, HotKeyShiftFraction: fraction}
}
