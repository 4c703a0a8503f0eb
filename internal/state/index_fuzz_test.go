package state

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// refSlot is one key's state in the reference's slab, in the layout the slot
// type had before the aux lane moved out of it: the structured payload rides
// in the slot itself.
type refSlot struct {
	key   uint64
	val   float64
	aux   any
	bytes int
	live  bool
}

// mapGroup is the map-indexed key group the open-addressing index replaced:
// a Go map from key to slot over the same slab and free list. It is the
// reference FuzzGroupIndex holds Group to.
type mapGroup struct {
	index map[uint64]int32
	slots []refSlot
	free  []int32
	Bytes int
}

func newMapGroup() *mapGroup { return &mapGroup{index: make(map[uint64]int32)} }

func (g *mapGroup) put(key uint64, val float64, aux any, bytes int) {
	if i, ok := g.index[key]; ok {
		s := &g.slots[i]
		g.Bytes -= s.bytes
		s.val, s.aux, s.bytes = val, aux, bytes
		g.Bytes += bytes
		return
	}
	var i int32
	if n := len(g.free); n > 0 {
		i = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		g.slots = append(g.slots, refSlot{})
		i = int32(len(g.slots) - 1)
	}
	g.slots[i] = refSlot{key: key, val: val, aux: aux, bytes: bytes, live: true}
	g.index[key] = i
	g.Bytes += bytes
}

func (g *mapGroup) Put(key uint64, value any, bytes int) {
	if f, ok := value.(float64); ok {
		g.put(key, f, nil, bytes)
		return
	}
	g.put(key, 0, value, bytes)
}

func (g *mapGroup) GetF64(key uint64) (float64, bool) {
	i, ok := g.index[key]
	if !ok || g.slots[i].aux != nil {
		return 0, false
	}
	return g.slots[i].val, true
}

func (g *mapGroup) Get(key uint64) (any, bool) {
	i, ok := g.index[key]
	if !ok {
		return nil, false
	}
	if s := &g.slots[i]; s.aux != nil {
		return s.aux, true
	}
	return g.slots[i].val, true
}

func (g *mapGroup) Delete(key uint64) {
	i, ok := g.index[key]
	if !ok {
		return
	}
	g.Bytes -= g.slots[i].bytes
	g.slots[i] = refSlot{}
	delete(g.index, key)
	g.free = append(g.free, i)
}

func (g *mapGroup) AppendKeys(dst []uint64) []uint64 {
	for i := range g.slots {
		if g.slots[i].live {
			dst = append(dst, g.slots[i].key)
		}
	}
	return dst
}

func (g *mapGroup) Merge(other *mapGroup) {
	for i := range other.slots {
		if s := &other.slots[i]; s.live {
			g.put(s.key, s.val, s.aux, s.bytes)
		}
	}
}

func (g *mapGroup) extractSubUnit(sub, n int) *mapGroup {
	out := newMapGroup()
	for i := range g.slots {
		if sl := &g.slots[i]; sl.live && SubUnitOf(sl.key, n) == sub {
			out.put(sl.key, sl.val, sl.aux, sl.bytes)
		}
	}
	for i := range out.slots {
		g.Delete(out.slots[i].key)
	}
	return out
}

// refreeze is the reference's checkpoint round trip: copy the slab and free
// list, deep-copying the payloads their owners mutate in place, then rebuild
// the index from the live slots.
func (g *mapGroup) refreeze() *mapGroup {
	out := &mapGroup{
		index: make(map[uint64]int32, len(g.index)),
		slots: append([]refSlot(nil), g.slots...),
		free:  append([]int32(nil), g.free...),
		Bytes: g.Bytes,
	}
	for i := range out.slots {
		if p, ok := out.slots[i].aux.(*fuzzPane); ok {
			out.slots[i].aux = p.CloneState()
		}
		if out.slots[i].live {
			out.index[out.slots[i].key] = int32(i)
		}
	}
	return out
}

// fuzzPane is a structured payload its owner appends to in place and then
// Puts again, the way window panes and join buffers are kept.
type fuzzPane struct{ vals []byte }

func (p *fuzzPane) CloneState() any { return &fuzzPane{vals: append([]byte(nil), p.vals...)} }

// sameValue compares two state values, fuzzPanes by content.
func sameValue(a, b any) bool {
	pa, aok := a.(*fuzzPane)
	pb, bok := b.(*fuzzPane)
	if aok || bok {
		return aok && bok && bytes.Equal(pa.vals, pb.vals)
	}
	return a == b
}

// appendPane appends v to key's fuzzPane in place, or stores a new pane when
// key holds none, and Puts it back with one byte per value.
func appendPane(get func(uint64) (any, bool), put func(uint64, any, int), key uint64, v byte) {
	cur, _ := get(key)
	p, ok := cur.(*fuzzPane)
	if !ok {
		p = &fuzzPane{}
	}
	p.vals = append(p.vals, v)
	put(key, p, len(p.vals))
}

// hashInverse is hashMul's multiplicative inverse mod 2^64, so hashInverse*h
// is a key whose hash is exactly h.
var hashInverse = func() uint64 {
	x := uint64(hashMul) // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		x *= 2 - hashMul*x
	}
	return x
}()

// fuzzKey draws a key from two bytes. Besides small plain keys it makes keys
// whose hash is a small number (tag 0, so they collide at every table size
// and only the slot's key tells them apart), keys whose hash is just below
// 2^64 (home in the last bucket, so their probes wrap past the end of the
// table), and keys that collide in tables of up to 256 buckets.
func fuzzKey(kind, t byte) uint64 {
	switch kind % 4 {
	case 0:
		return uint64(t)
	case 1:
		return hashInverse * uint64(t)
	case 2:
		return hashInverse * -uint64(t+1)
	default:
		return hashInverse * (uint64(t%8)<<56 | uint64(t))
	}
}

// FuzzGroupIndex runs Group and the map-indexed reference through the same
// operations — Put, PutF64, Delete, Get, GetF64, Merge, a sub-unit moved
// through one reused Chunk by ExtractSubUnit and InstallChunk, an in-place
// append to a cloneable payload, checkpoints held across later writes,
// checkpoint round trips, and snapshots taken and released through a
// FrozenPool — on two groups, and after each one requires the same length,
// bytes, lookups for every key seen so far, and slab order, which also pins
// free-list reuse. It also requires a group frozen twice without a write in
// between to share one copy, a write to force a fresh one, every held
// checkpoint and snapshot to thaw to the reference's copy taken at the same
// instant however often the pool has recycled copies since, the pool to hold
// only copies that nothing holds, each filed under its own size class, and no
// copy's slab to be replaced once made, so a refill never regrows it.
func FuzzGroupIndex(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 2, 3, 2, 1, 2, 1, 1, 9, 7, 0, 0})
	f.Add([]byte{0x21, 1, 0, 0x21, 2, 0, 2, 1, 3, 0x02, 2, 5, 7, 0, 0, 1, 1, 4})
	f.Add([]byte{0x31, 2, 0, 0x21, 1, 8, 5, 0, 0, 6, 1, 3, 0x15, 0, 0, 2, 2, 0})
	f.Add([]byte{0x23, 3, 0, 0x21, 0, 200, 2, 1, 5, 2, 2, 0, 0, 3, 4, 7, 0, 0, 1, 2, 5})
	f.Add([]byte{1, 0, 1, 1, 0, 2, 10, 0, 0, 2, 0, 1, 7, 0, 0, 11, 0, 2, 7, 0, 0})
	f.Add([]byte{8, 1, 3, 10, 1, 3, 9, 1, 3, 8, 2, 4, 11, 1, 3, 7, 0, 0, 9, 2, 4, 0x15, 0, 1, 0x18, 1, 3, 5, 0, 0, 10, 0, 0})
	// Snapshots released and their copies refilled: by a write to the
	// group, to a Thaw-made group, and while other snapshots are held.
	f.Add([]byte{1, 0, 1, 12, 0, 0, 1, 0, 2, 12, 0, 0, 13, 0, 0, 1, 0, 3, 12, 0, 0, 13, 0, 1, 1, 0, 4, 12, 0, 0, 8, 1, 5, 12, 0, 0})
	f.Add([]byte{0x21, 1, 7, 7, 0, 0, 12, 0, 0, 0x1c, 0, 0, 1, 0, 9, 13, 0, 0, 12, 0, 0, 0x11, 1, 7, 13, 0, 0, 12, 0, 0, 7, 0, 0, 1, 2, 3, 12, 0, 0})
	// Keys of kind 1 share tag 0: a 16-key run of them in group 1, some in
	// group 0, then Delete, Get, re-insert, a restore, a Merge and a moved
	// sub-unit, each of which must tell them apart by the slot's key.
	f.Add([]byte{0x31, 1, 0, 1, 1, 5, 1, 1, 9, 2, 1, 5, 4, 1, 5, 4, 1, 9, 1, 1, 5, 7, 0, 0, 0x15, 1, 0, 6, 1, 3, 0x12, 1, 9, 0x14, 1, 9, 0x16, 1, 2})
	if hashInverse*hashMul != 1 {
		f.Fatalf("hashInverse %#x is not the inverse of hashMul", hashInverse)
	}
	// A chunk has no key index and no free list: nothing in it can be
	// looked up, so none is kept up to date.
	for _, fld := range reflect.VisibleFields(reflect.TypeFor[Chunk]()) {
		if fld.Type == reflect.TypeFor[keyIndex]() || fld.Type == reflect.TypeFor[[]int32]() {
			f.Fatalf("Chunk.%s is a %v", fld.Name, fld.Type)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gs := [2]*Group{{}, {}}
		refs := [2]*mapGroup{newMapGroup(), newMapGroup()}
		// held[i] is a checkpoint of group i kept across later steps, and
		// heldRefs[i] the reference's copy taken at the same instant.
		var held [2]*FrozenGroup
		var heldRefs [2]*mapGroup
		// snaps are snapshot copies taken through pool and not yet
		// released, with the reference's copies taken at the same instant.
		pool := &FrozenPool{}
		type snapshot struct {
			f   *FrozenGroup
			ref *mapGroup
		}
		var snaps []snapshot
		// slabs records the slab of every copy seen in the pool.
		slabs := map[*FrozenGroup]*slot{}
		// chunk carries every sub-unit of the input in turn.
		var chunk Chunk
		// seen lists every key drawn so far, once, in the order drawn.
		var seen []uint64
		drawn := map[uint64]bool{}
		see := func(k uint64) {
			if !drawn[k] {
				drawn[k] = true
				seen = append(seen, k)
			}
		}
		var got, want []uint64
		match := func(step int, what string, g *Group, ref *mapGroup) {
			t.Helper()
			if g.Len() != len(ref.index) || g.Bytes != ref.Bytes {
				t.Fatalf("step %d %s: %d keys in %d bytes, reference %d in %d", step, what, g.Len(), g.Bytes, len(ref.index), ref.Bytes)
			}
			for _, k := range seen {
				gv, gok := g.Get(k)
				rv, rok := ref.Get(k)
				gf, gfok := g.GetF64(k)
				rf, rfok := ref.GetF64(k)
				if !sameValue(gv, rv) || gok != rok || gf != rf || gfok != rfok {
					t.Fatalf("step %d %s: key %#x reads %v %v / %v %v, reference %v %v / %v %v", step, what, k, gv, gok, gf, gfok, rv, rok, rf, rfok)
				}
			}
			got, want = g.AppendKeys(got[:0]), ref.AppendKeys(want[:0])
			if len(got) != len(want) {
				t.Fatalf("step %d %s: slab keys %x, reference %x", step, what, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("step %d %s: slab keys %x, reference %x", step, what, got, want)
				}
			}
			checkIndex(t, g)
		}
		// matchFrozen thaws f into a throwaway group, matches it, and drops
		// the throwaway's hold the way a write would.
		matchFrozen := func(step int, what string, f *FrozenGroup, ref *mapGroup) {
			t.Helper()
			th := f.Thaw()
			match(step, what, th, ref)
			th.unfreeze()
		}
		// The checks after each step read every key seen so far, so the
		// steps are capped to keep one input's cost bounded.
		for step := 0; step < 128 && len(data) >= 3; step++ {
			op, kind, arg := data[0], data[1], data[2]
			data = data[3:]
			a, b := int(op>>4&1), 1-int(op>>4&1)
			g, ref := gs[a], refs[a]
			key := fuzzKey(kind, arg)
			bytes := int(kind>>2) + 1
			see(key)
			switch (op & 15) % 14 {
			case 0:
				g.Put(key, string(rune('a'+arg%26)), bytes)
				ref.Put(key, string(rune('a'+arg%26)), bytes)
			case 1:
				// With bit 5 set, put a run of 16 keys to push the table
				// through its doublings.
				n := 1 + 15*int(op>>5&1)
				for i := 0; i < n; i++ {
					k := fuzzKey(kind, arg+byte(i))
					see(k)
					g.PutF64(k, float64(step), bytes)
					ref.put(k, float64(step), nil, bytes)
				}
			case 2:
				g.Delete(key)
				ref.Delete(key)
			case 3:
				gv, gok := g.Get(key)
				rv, rok := ref.Get(key)
				if !sameValue(gv, rv) || gok != rok {
					t.Fatalf("step %d: Get(%#x) = %v %v, reference %v %v", step, key, gv, gok, rv, rok)
				}
			case 4:
				gv, gok := g.GetF64(key)
				rv, rok := ref.GetF64(key)
				if gv != rv || gok != rok {
					t.Fatalf("step %d: GetF64(%#x) = %v %v, reference %v %v", step, key, gv, gok, rv, rok)
				}
			case 5:
				g.Merge(gs[b])
				ref.Merge(refs[b])
			case 6:
				// A sub-unit of group a moves to group b, or, with bit 5
				// set, goes back into group a the way a failed transfer
				// returns it.
				n := int(arg%4) + 1
				sub := int(kind) % n
				s := NewStore(2)
				s.InstallGroup(0, g)
				s.InstallGroup(1, gs[b])
				s.ExtractSubUnit(0, sub, n, &chunk)
				out := ref.extractSubUnit(sub, n)
				if chunk.Len() != len(out.index) || chunk.Bytes != out.Bytes {
					t.Fatalf("step %d: a chunk of %d keys in %d bytes, reference %d in %d", step, chunk.Len(), chunk.Bytes, len(out.index), out.Bytes)
				}
				if op>>5&1 == 0 {
					s.InstallChunk(1, &chunk)
					refs[b].Merge(out)
				} else {
					s.InstallChunk(0, &chunk)
					ref.Merge(out)
				}
				if chunk.Len() != 0 || chunk.Bytes != 0 {
					t.Fatalf("step %d: InstallChunk left %d keys in %d bytes in the chunk", step, chunk.Len(), chunk.Bytes)
				}
			case 7:
				// A restore: the old group lets go of its copy, and the
				// thawed group is left its only holder.
				f := g.freeze(pool)
				gs[a] = f.Thaw()
				refs[a] = ref.refreeze()
				g.unfreeze()
				f.release()
				again := gs[a].freeze(pool)
				if again != f {
					t.Fatalf("step %d: a thawed group froze to a new copy before any write", step)
				}
				again.release()
			case 8:
				appendPane(g.Get, g.Put, key, arg)
				appendPane(ref.Get, ref.Put, key, arg)
			case 9:
				// A pane appended in place must not leak into a checkpoint
				// taken before it.
				f := g.freeze(pool)
				r := ref.refreeze()
				appendPane(g.Get, g.Put, key, arg)
				appendPane(ref.Get, ref.Put, key, arg)
				matchFrozen(step, "checkpoint before the append", f, r)
				f.release()
			case 10:
				if held[a] != nil {
					held[a].release()
				}
				held[a], heldRefs[a] = g.freeze(pool), ref.refreeze()
				again := g.freeze(pool)
				if again != held[a] {
					t.Fatalf("step %d: two freezes with no write between made two copies", step)
				}
				again.release()
			case 11:
				before, r := g.freeze(pool), ref.refreeze()
				g.PutF64(key, float64(step), bytes)
				ref.put(key, float64(step), nil, bytes)
				after := g.freeze(pool)
				if after == before {
					t.Fatalf("step %d: a freeze after PutF64 returned the copy from before it", step)
				}
				after.release()
				matchFrozen(step, "checkpoint before the PutF64", before, r)
				before.release()
			case 12:
				// Snapshot: at most eight are held, the oldest released
				// first.
				if len(snaps) == 8 {
					snaps[0].f.release()
					snaps = slices.Delete(snaps, 0, 1)
				}
				snaps = append(snaps, snapshot{g.freeze(pool), ref.refreeze()})
			case 13:
				if len(snaps) > 0 {
					i := int(arg) % len(snaps)
					snaps[i].f.release()
					snaps = slices.Delete(snaps, i, i+1)
				}
			}
			for i := range gs {
				match(step, "group "+string(rune('0'+i)), gs[i], refs[i])
				if held[i] != nil {
					matchFrozen(step, "held checkpoint "+string(rune('0'+i)), held[i], heldRefs[i])
				}
			}
			for i, sn := range snaps {
				matchFrozen(step, "snapshot "+string(rune('0'+i)), sn.f, sn.ref)
			}
			for c, class := range pool.free {
				for _, f := range class {
					inUse := f == held[0] || f == held[1] || f == gs[0].frozen || f == gs[1].frozen
					for _, sn := range snaps {
						inUse = inUse || f == sn.f
					}
					if f.holds != 0 || inUse {
						t.Fatalf("step %d: the pool holds a copy with %d holders (in use: %v)", step, f.holds, inUse)
					}
					if cap(f.slots) != 1<<c {
						t.Fatalf("step %d: a copy of slab capacity %d is filed under size class %d", step, cap(f.slots), c)
					}
					if _, ok := slabs[f]; !ok {
						slabs[f] = &f.slots[:1][0]
					}
				}
			}
			for f, slab := range slabs {
				if &f.slots[:1][0] != slab {
					t.Fatalf("step %d: a pooled copy's slab was regrown to capacity %d", step, cap(f.slots))
				}
			}
		}
	})
}

// checkIndex requires the key index's counter to match its occupied buckets,
// the load to stay within its limit, every entry to name a distinct live slot
// of g under that slot's key's tag, and every key to be reachable from its
// home bucket without crossing an empty one.
func checkIndex(t *testing.T, g *Group) {
	t.Helper()
	x := &g.index
	if loadDen*x.n > loadNum*len(x.table) {
		t.Fatalf("index holds %d keys in %d buckets", x.n, len(x.table))
	}
	named := make([]bool, len(g.slots))
	var n int
	mask := len(x.table) - 1
	for b, e := range x.table {
		if e.ref == 0 {
			continue
		}
		n++
		i := int(e.ref) - 1
		if i < 0 || i >= len(g.slots) || !g.slots[i].live || named[i] {
			t.Fatalf("bucket %d names slot %d, not a live slot of %d named once", b, i, len(g.slots))
		}
		named[i] = true
		if key := g.slots[i].key; e.tag != tagOf(key) {
			t.Fatalf("bucket %d holds tag %#x for slot %d, whose key %#x has tag %#x", b, e.tag, i, key, tagOf(key))
		}
		for h := x.home(e.tag); h != b; h = (h + 1) & mask {
			if x.table[h].ref == 0 {
				t.Fatalf("slot %d in bucket %d is cut off from its home %d by empty bucket %d", i, b, x.home(e.tag), h)
			}
		}
	}
	if n != x.n {
		t.Fatalf("index counts %d keys, its table holds %d", x.n, n)
	}
}

// TestIndexTagCollision runs distinct keys that share one tag through every
// path that looks a key up or moves it: Put, Get, Delete, re-insert, Thaw,
// Merge, and a sub-unit moved by ExtractSubUnit and InstallChunk. The keys
// share a home bucket at every table size and the index cannot tell them
// apart, so only the slot's key says which of them a bucket holds.
func TestIndexTagCollision(t *testing.T) {
	const n = 40                // three table doublings
	keys := make([]uint64, n+4) // the last four are never stored
	for i := range keys {
		keys[i] = hashInverse * (0x5bd1e995<<32 | uint64(i)*0x01000193)
		if keys[i] == keys[0] && i > 0 || tagOf(keys[i]) != tagOf(keys[0]) {
			t.Fatalf("key %d (%#x) does not share key 0's tag as a distinct key", i, keys[i])
		}
	}
	check := func(what string, g *Group, want map[uint64]float64) {
		t.Helper()
		checkIndex(t, g)
		if g.Len() != len(want) {
			t.Fatalf("%s: %d keys, want %d", what, g.Len(), len(want))
		}
		for _, k := range keys {
			v, ok := g.GetF64(k)
			a, aok := g.Get(k)
			w, wok := want[k]
			if v != w || ok != wok || aok != wok || wok && a != any(w) {
				t.Fatalf("%s: key %#x reads %v %v (boxed %v %v), want %v %v", what, k, v, ok, a, aok, w, wok)
			}
		}
	}
	g, want := &Group{}, map[uint64]float64{}
	put := func(g *Group, want map[uint64]float64, k uint64, v float64) {
		g.PutF64(k, v, 8)
		want[k] = v
	}
	for i := 0; i < n; i++ {
		put(g, want, keys[i], float64(i))
	}
	check("put", g, want)
	for i := 0; i < n; i += 2 {
		put(g, want, keys[i], float64(100+i))
	}
	check("replace", g, want)
	for i := 0; i < len(keys); i += 3 {
		g.Delete(keys[i])
		delete(want, keys[i])
	}
	check("delete", g, want)
	for i := 0; i < n; i += 3 {
		put(g, want, keys[i], float64(200+i))
	}
	check("re-insert", g, want)

	f := g.freeze(nil)
	th := f.Thaw()
	check("thaw", th, want)
	other, wantOther := &Group{}, map[uint64]float64{}
	for i := 1; i < n+2; i += 4 {
		put(other, wantOther, keys[i], float64(300+i))
	}
	th.Merge(other)
	maps.Copy(want, wantOther)
	check("merge", th, want)

	s := NewStore(2)
	s.InstallGroup(0, th)
	var c Chunk
	s.ExtractSubUnit(0, 1, 3, &c)
	moved := map[uint64]float64{}
	for k, v := range want {
		if SubUnitOf(k, 3) == 1 {
			moved[k] = v
			delete(want, k)
		}
	}
	if len(moved) == 0 || len(want) == 0 {
		t.Fatalf("sub-unit 1 of 3 holds %d of the %d keys; the test needs a split", len(moved), len(moved)+len(want))
	}
	check("extract", th, want)
	s.InstallChunk(1, &c)
	check("install", s.Group(1), moved)
	s.InstallChunk(0, &c)
	check("empty chunk", th, want)
}
