// Package state implements the keyed state backend of the simulated engine.
//
// Following Flink's model (and the paper's), keyed state is partitioned into
// a fixed number of key groups; a key group is the atomic unit of state
// migration. Meces additionally splits key groups into sub-key-groups
// ("hierarchical state organization"), which ExtractSubUnit supports.
//
// Storage layout: a key group keeps a map[uint64]int32 index from key to a
// slot in a contiguous slab. The common payload — one float64 accumulator —
// lives unboxed in the slot's fast lane; rare structured payloads (window
// panes, join buffers) ride in an `any` escape hatch. Deleted slots go on a
// free list and are reused, so steady-state Put/Get/Delete allocate nothing.
// Byte accounting (per entry, per group) is identical to the boxed
// implementation this replaces: migration chunking, sub-key-group slicing,
// and serialized-bytes accounting observe the exact same numbers.
package state

import (
	"fmt"
	"sort"
)

// KeyGroupOf maps a key to its key group, Flink-style: a stable hash of the
// key modulo the maximum number of key groups.
func KeyGroupOf(key uint64, maxKeyGroups int) int {
	if maxKeyGroups <= 0 {
		panic("state: maxKeyGroups must be positive")
	}
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(maxKeyGroups))
}

// SubUnitOf maps a key to one of n sub-key-groups within its key group
// (Meces's hierarchical organization).
func SubUnitOf(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := key*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	h ^= h >> 29
	return int(h % uint64(n))
}

// slot is one key's state in a group's slab: an unboxed float64 fast lane,
// an `any` escape hatch for structured payloads, and the accounted size.
// aux == nil means the entry's payload is the fast lane.
type slot struct {
	key   uint64
	val   float64
	aux   any
	bytes int
	live  bool
}

// Group is the state of one key group: a slab of slots indexed by key, with
// a free list recycling deleted slots.
type Group struct {
	index map[uint64]int32
	slots []slot
	free  []int32
	// Bytes is the group's accounted size (the sum of entry sizes).
	Bytes int
}

// NewGroup returns an empty key-group container.
func NewGroup() *Group {
	return &Group{index: make(map[uint64]int32)}
}

// Len reports the number of keys with state in the group.
func (g *Group) Len() int { return len(g.index) }

// put is the shared insert/replace path; value semantics are split across
// the two lanes by the callers.
func (g *Group) put(key uint64, val float64, aux any, bytes int) {
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

// PutF64 inserts or replaces a key's state with an unboxed float64,
// maintaining byte accounting. This is the record hot path.
func (g *Group) PutF64(key uint64, v float64, bytes int) { g.put(key, v, nil, bytes) }

// Put inserts or replaces a key's state, maintaining byte accounting.
// float64 values land in the fast lane; everything else rides in the aux
// lane. Hot paths should call PutF64 directly.
func (g *Group) Put(key uint64, value any, bytes int) {
	if f, ok := value.(float64); ok {
		g.put(key, f, nil, bytes)
		return
	}
	g.put(key, 0, value, bytes)
}

// GetF64 returns the fast-lane value for key. ok is false when the key is
// absent or holds an aux payload.
func (g *Group) GetF64(key uint64) (float64, bool) {
	i, ok := g.index[key]
	if !ok {
		return 0, false
	}
	s := &g.slots[i]
	if s.aux != nil {
		return 0, false
	}
	return s.val, true
}

// Get returns the state for key: the aux payload if present, else the boxed
// fast-lane value. Hot paths should call GetF64 to avoid the boxing.
func (g *Group) Get(key uint64) (any, bool) {
	i, ok := g.index[key]
	if !ok {
		return nil, false
	}
	s := &g.slots[i]
	if s.aux != nil {
		return s.aux, true
	}
	return s.val, true
}

// Delete removes a key's state, recycling its slot.
func (g *Group) Delete(key uint64) {
	i, ok := g.index[key]
	if !ok {
		return
	}
	s := &g.slots[i]
	g.Bytes -= s.bytes
	*s = slot{}
	delete(g.index, key)
	g.free = append(g.free, i)
}

// ForEach visits every entry in slab (insertion) order. Fast-lane values are
// boxed for the callback, so hot paths should not iterate this way; it
// exists for migration slicing, window firing, and inspection. The callback
// must not add or delete entries.
func (g *Group) ForEach(fn func(key uint64, value any, bytes int)) {
	for i := range g.slots {
		s := &g.slots[i]
		if !s.live {
			continue
		}
		if s.aux != nil {
			fn(s.key, s.aux, s.bytes)
		} else {
			fn(s.key, s.val, s.bytes)
		}
	}
}

// Keys returns the group's keys in slab (insertion) order.
func (g *Group) Keys() []uint64 {
	return g.AppendKeys(make([]uint64, 0, len(g.index)))
}

// AppendKeys appends the group's keys to dst in slab order and returns it
// (the allocation-free variant of Keys for reusable scratch buffers).
func (g *Group) AppendKeys(dst []uint64) []uint64 {
	for i := range g.slots {
		if g.slots[i].live {
			dst = append(dst, g.slots[i].key)
		}
	}
	return dst
}

// Merge folds other into g (used when a migrated chunk arrives), entry by
// entry with Put accounting, without boxing fast-lane values.
func (g *Group) Merge(other *Group) {
	for i := range other.slots {
		s := &other.slots[i]
		if s.live {
			g.put(s.key, s.val, s.aux, s.bytes)
		}
	}
}

// Clone deep-copies the group — the checkpoint/restore path: snapshots must
// not alias live slabs, and restores must not hand the checkpoint's only copy
// to a store that will keep mutating it.
func (g *Group) Clone() *Group { return g.clone() }

// clone deep-copies the group (aux payloads are copied shallowly; simulated
// state values are immutable or replaced wholesale on Put).
func (g *Group) clone() *Group {
	ng := &Group{
		index: make(map[uint64]int32, len(g.index)),
		slots: append([]slot(nil), g.slots...),
		free:  append([]int32(nil), g.free...),
		Bytes: g.Bytes,
	}
	for k, i := range g.index {
		ng.index[k] = i
	}
	return ng
}

// Store is the keyed state of one operator instance: the subset of key groups
// currently local to it.
type Store struct {
	MaxKeyGroups int
	groups       map[int]*Group
}

// NewStore returns a store that owns no key groups yet.
func NewStore(maxKeyGroups int) *Store {
	if maxKeyGroups <= 0 {
		panic("state: maxKeyGroups must be positive")
	}
	return &Store{MaxKeyGroups: maxKeyGroups, groups: make(map[int]*Group)}
}

// OwnGroup declares kg local (idempotent), creating an empty group if absent.
func (s *Store) OwnGroup(kg int) *Group {
	g, ok := s.groups[kg]
	if !ok {
		g = NewGroup()
		s.groups[kg] = g
	}
	return g
}

// HasGroup reports whether kg is local.
func (s *Store) HasGroup(kg int) bool {
	_, ok := s.groups[kg]
	return ok
}

// Group returns the local group for kg, or nil.
func (s *Store) Group(kg int) *Group { return s.groups[kg] }

// Groups returns the sorted list of local key groups.
func (s *Store) Groups() []int {
	out := make([]int, 0, len(s.groups))
	for kg := range s.groups {
		out = append(out, kg)
	}
	sort.Ints(out)
	return out
}

// Get returns the state for key, which must hash into a local group. Hot
// paths use GetF64.
func (s *Store) Get(key uint64) (any, bool) {
	kg := KeyGroupOf(key, s.MaxKeyGroups)
	g, ok := s.groups[kg]
	if !ok {
		return nil, false
	}
	return g.Get(key)
}

// GetF64 returns the unboxed fast-lane state for key (ok is false when the
// key is absent, holds an aux payload, or its group is not local).
func (s *Store) GetF64(key uint64) (float64, bool) {
	kg := KeyGroupOf(key, s.MaxKeyGroups)
	g, ok := s.groups[kg]
	if !ok {
		return 0, false
	}
	return g.GetF64(key)
}

// Put writes state for key into its (local) key group. It panics if the key
// group is not local: processing a record without local state is exactly the
// bug class the scaling mechanisms exist to prevent, so it must be loud.
func (s *Store) Put(key uint64, value any, bytes int) {
	s.mustGroup(key).Put(key, value, bytes)
}

// PutF64 writes unboxed fast-lane state for key into its (local) key group,
// panicking like Put when the group is not local.
func (s *Store) PutF64(key uint64, v float64, bytes int) {
	s.mustGroup(key).PutF64(key, v, bytes)
}

func (s *Store) mustGroup(key uint64) *Group {
	kg := KeyGroupOf(key, s.MaxKeyGroups)
	g, ok := s.groups[kg]
	if !ok {
		panic(fmt.Sprintf("state: Put(key=%d) into non-local key group %d", key, kg))
	}
	return g
}

// Delete removes state for key if present.
func (s *Store) Delete(key uint64) {
	kg := KeyGroupOf(key, s.MaxKeyGroups)
	if g, ok := s.groups[kg]; ok {
		g.Delete(key)
	}
}

// GroupBytes reports the accounted size of kg (0 if not local).
func (s *Store) GroupBytes(kg int) int {
	if g, ok := s.groups[kg]; ok {
		return g.Bytes
	}
	return 0
}

// TotalBytes reports the accounted size of all local state.
func (s *Store) TotalBytes() int {
	var sum int
	for _, g := range s.groups {
		sum += g.Bytes
	}
	return sum
}

// KeyCount reports the number of keys with state across local groups.
func (s *Store) KeyCount() int {
	var n int
	//lint:allow maporder Len is a pure read folded into an integer sum, which commutes exactly
	for _, g := range s.groups {
		n += g.Len()
	}
	return n
}

// ExtractGroup removes kg from the store and returns it (the migration
// source path). Returns an empty group if kg was local but empty, nil if not
// local.
func (s *Store) ExtractGroup(kg int) *Group {
	g, ok := s.groups[kg]
	if !ok {
		return nil
	}
	delete(s.groups, kg)
	return g
}

// InstallGroup makes kg local with the given contents, merging if the group
// already exists (fetch-back paths can interleave with background chunks).
func (s *Store) InstallGroup(kg int, g *Group) {
	if g == nil {
		g = NewGroup()
	}
	if cur, ok := s.groups[kg]; ok {
		cur.Merge(g)
		return
	}
	s.groups[kg] = g
}

// ExtractSubUnit removes the keys of kg that fall into sub-unit sub of n and
// returns them as a group. The key group itself stays local (Meces keeps
// serving the remainder). Returns nil if kg is not local.
func (s *Store) ExtractSubUnit(kg, sub, n int) *Group {
	g, ok := s.groups[kg]
	if !ok {
		return nil
	}
	out := NewGroup()
	for i := range g.slots {
		sl := &g.slots[i]
		if sl.live && SubUnitOf(sl.key, n) == sub {
			out.put(sl.key, sl.val, sl.aux, sl.bytes)
		}
	}
	for i := range out.slots {
		g.Delete(out.slots[i].key)
	}
	return out
}

// Snapshot deep-copies the group map.
func (s *Store) Snapshot() map[int]*Group {
	out := make(map[int]*Group, len(s.groups))
	//lint:allow maporder clone deep-copies one self-contained group; writes keyed by the same kg are content-deterministic
	for kg, g := range s.groups {
		out[kg] = g.clone()
	}
	return out
}

// Restore replaces the store contents with a snapshot.
func (s *Store) Restore(snap map[int]*Group) {
	s.groups = make(map[int]*Group, len(snap))
	//lint:allow maporder clone deep-copies one self-contained group; writes keyed by the same kg are content-deterministic
	for kg, g := range snap {
		s.groups[kg] = g.clone()
	}
}

// KeyGroupRange computes Flink's contiguous key-group assignment
// (KeyGroupRangeAssignment.computeKeyGroupRangeForOperatorIndex): instance i
// of parallelism p over maxKG groups owns [start, end). This exact formula
// matters: with it, scaling 8→12 over 128 groups migrates 111 groups and
// 25→30 over 256 migrates 229, matching the paper's reported counts.
func KeyGroupRange(maxKG, parallelism, index int) (start, end int) {
	if parallelism <= 0 || index < 0 || index >= parallelism {
		panic(fmt.Sprintf("state: bad key-group range args p=%d i=%d", parallelism, index))
	}
	start = (index*maxKG + parallelism - 1) / parallelism
	end = ((index+1)*maxKG + parallelism - 1) / parallelism
	return start, end
}

// OwnerOf returns the instance that owns kg under the contiguous assignment.
func OwnerOf(maxKG, parallelism, kg int) int {
	// Inverse of KeyGroupRange: find i with start <= kg < end.
	i := (kg*parallelism + parallelism - 1) / maxKG
	for {
		s, e := KeyGroupRange(maxKG, parallelism, clamp(i, 0, parallelism-1))
		ci := clamp(i, 0, parallelism-1)
		if kg >= s && kg < e {
			return ci
		}
		if kg < s {
			i = ci - 1
		} else {
			i = ci + 1
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
