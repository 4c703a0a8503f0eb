package main

// The sandbox this benchmark runs in changes speed by the minute, and no
// statistic taken inside one run removes a slowdown that outlasts the run.
// So host time is reported relative to a calibration unit that runs between
// the cells and around every set-up, outside the timed regions: a frozen
// miniature of what the simulator does to the machine that shares no code
// with the simulator, so no change to the simulator can move it. The unit
// builds what it touches and drops it before it returns: nothing of it is
// live while a cell is timed. README.md ("Measured steadiness") has raw and
// normalised spreads taken from the same passes.

// calibReferenceS is the time of one unit on the 2-core 2.1 GHz sandbox when
// the benchmark was defined. It only fixes the scale, so that normalised
// seconds read like seconds on this box: they are wall seconds on a box that
// runs the unit in exactly this time.
const calibReferenceS = 0.0165

const (
	calibInstances = 1024
	calibKeys      = 64
	calibTable     = 1 << 15 // words: 256 KB
	calibProbes    = 12
	calibPending   = 2048
	calibEvents    = 60_000
)

type calibEvent struct {
	at   int64
	inst uint32
}

// calibHeap is a 4-ary min-heap on at.
type calibHeap []calibEvent

func (h *calibHeap) push(e calibEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 4
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *calibHeap) pop() calibEvent {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	*h = s[:n]
	for i := 0; ; {
		m := i
		for k := 4*i + 1; k <= 4*i+4 && k < n; k++ {
			if s[k].at < s[m].at {
				m = k
			}
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

var calibSink uint64

// calibUnit does one fixed unit of work and returns its wall seconds. Events
// come off a heap and go back on it; each updates its instance's map and
// backlog (map probes and small allocations: what the collector and the
// memory system see of a run) and chases dependent probes through a
// cache-resident table (what the core sees). Measured side by side over the
// same passes, either half alone left half as much again of the box's drift
// in the normalised time as the two together.
func calibUnit() float64 {
	t0 := wallNow()
	rng := uint64(88172645463325252)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	state := make([]map[uint64]uint64, calibInstances)
	backlog := make([][]uint64, calibInstances)
	for i := range state {
		state[i] = make(map[uint64]uint64, calibKeys)
		for k := uint64(0); k < calibKeys; k++ {
			state[i][k*7] = k
		}
	}
	table := make([]uint64, calibTable)
	var heap calibHeap
	for i := 0; i < calibPending; i++ {
		heap.push(calibEvent{at: int64(next() % 4096), inst: uint32(next() % calibInstances)})
	}
	var sum uint64
	for n := 0; n < calibEvents; n++ {
		e := heap.pop()
		r := next()
		state[e.inst][(r%calibKeys)*7]++
		backlog[e.inst] = append(backlog[e.inst], r&1023)
		if b := backlog[e.inst]; len(b) >= 32 {
			for _, v := range b {
				sum += v
			}
			backlog[e.inst] = make([]uint64, 0, 8)
		}
		i := r % calibTable
		for k := 0; k < calibProbes; k++ {
			table[i] += r
			i = (i*2862933555777941757 + table[i]) % calibTable
		}
		heap.push(calibEvent{at: e.at + 1 + int64(r>>40)%4096, inst: uint32((r >> 12) % calibInstances)})
	}
	calibSink = sum + table[0]
	return wallNow().Sub(t0).Seconds()
}

// boxSpeed turns the wall seconds of some calibration units into the box's
// speed relative to the reference: 1 is the reference, 0.5 half as fast. It
// goes by their median, so a unit that was descheduled for a while (one in a
// few hundred takes several times its usual time) cannot stand for the cells.
func boxSpeed(unitS []float64) float64 { return calibReferenceS / median(unitS) }
