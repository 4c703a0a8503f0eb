package state

import "testing"

// mapGroup is the map-indexed key group the open-addressing index replaced:
// a Go map from key to slot over the same slab and free list. It is the
// reference FuzzGroupIndex holds Group to.
type mapGroup struct {
	index map[uint64]int32
	slots []slot
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
		g.slots = append(g.slots, slot{})
		i = int32(len(g.slots) - 1)
	}
	g.slots[i] = slot{key: key, val: val, aux: aux, bytes: bytes, live: true}
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
	g.slots[i] = slot{}
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
// list, then rebuild the index from the live slots.
func (g *mapGroup) refreeze() *mapGroup {
	out := &mapGroup{
		index: make(map[uint64]int32, len(g.index)),
		slots: append([]slot(nil), g.slots...),
		free:  append([]int32(nil), g.free...),
		Bytes: g.Bytes,
	}
	for i := range out.slots {
		if out.slots[i].live {
			out.index[out.slots[i].key] = int32(i)
		}
	}
	return out
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
// whose hash is a small number (home bucket 0 at every table size, so they
// collide), keys whose hash is just below 2^64 (home in the last bucket, so
// their probes wrap past the end of the table), and keys that collide in
// tables of up to 256 buckets.
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
// operations — Put, PutF64, Delete, Get, GetF64, Merge, ExtractSubUnit and a
// checkpoint round trip — on two groups, and after each one requires the
// same length, bytes, lookups for every key seen so far, and slab order,
// which also pins free-list reuse.
func FuzzGroupIndex(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 2, 3, 2, 1, 2, 1, 1, 9, 7, 0, 0})
	f.Add([]byte{0x11, 1, 0, 0x11, 2, 0, 2, 1, 3, 0x02, 2, 5, 7, 0, 0, 1, 1, 4})
	f.Add([]byte{0x19, 2, 0, 0x11, 1, 8, 5, 0, 0, 6, 1, 3, 0x0d, 0, 0, 2, 2, 0})
	f.Add([]byte{0x13, 3, 0, 0x11, 0, 200, 2, 1, 5, 2, 2, 0, 0, 3, 4, 7, 0, 0, 1, 2, 5})
	if hashInverse*hashMul != 1 {
		f.Fatalf("hashInverse %#x is not the inverse of hashMul", hashInverse)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gs := [2]*Group{NewGroup(), NewGroup()}
		refs := [2]*mapGroup{newMapGroup(), newMapGroup()}
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
		// The checks after each step read every key seen so far, so the
		// steps are capped to keep one input's cost bounded.
		for step := 0; step < 128 && len(data) >= 3; step++ {
			op, kind, arg := data[0], data[1], data[2]
			data = data[3:]
			a, b := int(op>>3&1), 1-int(op>>3&1)
			g, ref := gs[a], refs[a]
			key := fuzzKey(kind, arg)
			bytes := int(kind>>2) + 1
			see(key)
			switch op & 7 {
			case 0:
				g.Put(key, string(rune('a'+arg%26)), bytes)
				ref.Put(key, string(rune('a'+arg%26)), bytes)
			case 1:
				// With bit 4 set, put a run of 16 keys to push the table
				// through its doublings.
				n := 1 + 15*int(op>>4&1)
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
				if gv != rv || gok != rok {
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
				n := int(arg%4) + 1
				sub := int(kind) % n
				s := NewStore(1)
				s.InstallGroup(0, g)
				gs[b] = s.ExtractSubUnit(0, sub, n)
				refs[b] = ref.extractSubUnit(sub, n)
			case 7:
				gs[a] = g.freeze().Thaw()
				refs[a] = ref.refreeze()
			}
			for i := range gs {
				g, ref := gs[i], refs[i]
				if g.Len() != len(ref.index) || g.Bytes != ref.Bytes {
					t.Fatalf("step %d group %d: %d keys in %d bytes, reference %d in %d", step, i, g.Len(), g.Bytes, len(ref.index), ref.Bytes)
				}
				for _, k := range seen {
					gv, gok := g.Get(k)
					rv, rok := ref.Get(k)
					gf, gfok := g.GetF64(k)
					rf, rfok := ref.GetF64(k)
					if gv != rv || gok != rok || gf != rf || gfok != rfok {
						t.Fatalf("step %d group %d: key %#x reads %v %v / %v %v, reference %v %v / %v %v", step, i, k, gv, gok, gf, gfok, rv, rok, rf, rfok)
					}
				}
				got, want = g.AppendKeys(got[:0]), ref.AppendKeys(want[:0])
				if len(got) != len(want) {
					t.Fatalf("step %d group %d: slab keys %x, reference %x", step, i, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("step %d group %d: slab keys %x, reference %x", step, i, got, want)
					}
				}
				checkIndex(t, &g.index)
			}
		}
	})
}

// checkIndex requires the key index's counter to match its occupied buckets,
// the load to stay within its limit, and every key to be reachable from its home
// bucket without crossing an empty one.
func checkIndex(t *testing.T, x *keyIndex) {
	t.Helper()
	if loadDen*x.n > loadNum*len(x.table) {
		t.Fatalf("index holds %d keys in %d buckets", x.n, len(x.table))
	}
	var n int
	mask := len(x.table) - 1
	for b, e := range x.table {
		if e.ref == 0 {
			continue
		}
		n++
		for h := x.home(e.key); h != b; h = (h + 1) & mask {
			if x.table[h].ref == 0 {
				t.Fatalf("key %#x in bucket %d is cut off from its home %d by empty bucket %d", e.key, b, x.home(e.key), h)
			}
		}
	}
	if n != x.n {
		t.Fatalf("index counts %d keys, its table holds %d", x.n, n)
	}
}
