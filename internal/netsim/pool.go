package netsim

import "drrs/internal/simtime"

// RecordPool is a free-list recycler for Record values on the ingest path.
// A simulation is single-threaded, so the pool is deliberately unsynchronized;
// each run (engine runtime) owns its own pool. Get falls back to allocation
// when empty, and Put drops records beyond a bound so a burst cannot pin
// memory for the rest of a run.
//
// The free list is threaded through the records themselves: a pooled
// record's Aux holds the next pooled record. Recycling therefore allocates
// nothing, and Record keeps no extra field (an 80-byte record fills its size
// class; one more pointer would move it to the 96-byte class).
type RecordPool struct {
	head *Record
	n    int
}

// poolCap bounds retained records (64K records ≈ 5 MB). A source backlog
// holds its arrivals by value and draws a record only as one leaves, so the
// records a pool sees are those in flight on edges and in queues, and the
// cap bounds those: a run that holds more in flight at once drops the
// surplus on return and allocates it again later.
const poolCap = 1 << 16

// Get returns a zeroed record, recycling a dead one when available.
func (p *RecordPool) Get() *Record {
	r := p.head
	if r == nil {
		return &Record{}
	}
	p.head, _ = r.Aux.(*Record)
	r.Aux = nil
	p.n--
	return r
}

// Put recycles a record the caller owns. The record must not be referenced
// anywhere else: it is zeroed and handed out again by a later Get.
func (p *RecordPool) Put(r *Record) {
	if r == nil || p.n >= poolCap {
		return
	}
	*r = Record{}
	if p.head != nil {
		r.Aux = p.head
	}
	p.head = r
	p.n++
}

// Len reports how many records the pool currently holds (for tests).
func (p *RecordPool) Len() int { return p.n }

// WatermarkPool is a free list of watermarks, threaded through the
// watermarks' own next field, so recycling allocates nothing. Like
// RecordPool it is unsynchronized and owned by one run. It needs no cap: a
// watermark is out of the pool only while an edge or a blocked-emission
// queue still holds it, and that is all the pool ever grows to.
type WatermarkPool struct {
	head *Watermark
	n    int
}

// Get returns a watermark carrying wm that holds receivers must each Put
// back once, after reading WM. holds must be positive.
func (p *WatermarkPool) Get(wm simtime.Time, holds int) *Watermark {
	w := p.head
	if w == nil {
		w = &Watermark{}
	} else {
		p.head, w.next = w.next, nil
		p.n--
	}
	w.WM, w.holds = wm, holds
	return w
}

// Put drops one receiver's hold on w; the caller has read WM and must not
// touch w again. The last hold returns w to the pool. A watermark built
// outside a pool holds nothing, and Put leaves it alone.
func (p *WatermarkPool) Put(w *Watermark) {
	if w.holds == 0 {
		return
	}
	if w.holds--; w.holds == 0 {
		w.next = p.head
		p.head = w
		p.n++
	}
}

// Len reports how many watermarks the pool currently holds (for tests).
func (p *WatermarkPool) Len() int { return p.n }
