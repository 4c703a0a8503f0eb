// Package state implements the keyed state backend of the simulated engine.
//
// Following Flink's model (and the paper's), keyed state is partitioned into
// a fixed number of key groups; a key group is the atomic unit of state
// migration. Meces additionally splits key groups into sub-key-groups
// ("hierarchical state organization"), which travel as Chunks.
//
// Storage layout: a key group keeps its entries in a contiguous slab of
// 24-byte slots (key, float64 value, int32 size, live flag) that holds no
// pointer, so the garbage collector never scans it. Slots are found through
// an open-addressing key index (linear probing over a power-of-two table at
// most 3/4 full, a multiplicative hash, and backward-shift deletion, so no
// tombstones build up). The common payload — one float64 accumulator — lives
// unboxed in the slot. Rare structured payloads (window panes, join buffers)
// ride in a parallel aux lane indexed by slot, which stays nil until the
// group first stores one, so keyed-reduce jobs never allocate it. Deleted
// slots go on a free list and are reused, so steady-state Put/Get/Delete
// allocate nothing. A store keeps its groups in a window: a slice over the
// key groups [lo, lo+len) that grows at either end to cover what the store
// owns, so an instance of a wide job holds about MaxKeyGroups/parallelism
// pointers, not MaxKeyGroups. Nothing iterates the key index: ForEach,
// AppendKeys, Merge, ExtractSubUnit and checkpoints walk the slab in slot
// order, and Groups walks the window in key-group order. A Chunk is a slab
// with no key index that its owner refills for each sub-unit, and a merge
// target is reserved once before entries are copied in.
//
// Checkpoints: a group's frozen copy is cached on the group until its next
// write, so a checkpoint of a group untouched since the previous one shares
// that one's copy instead of copying the slab again. Frozen copies are never
// mutated while anything holds them; Thaw copies out of them. A copy counts
// its holders (snapshots and groups caching it), and one no longer held goes
// back to the FrozenPool it came from, filed by slab size class, whose next
// freeze of a slab that size refills it in place without regrowing it.
//
// Byte accounting is per entry and per group; migration chunking,
// sub-key-group slicing and serialized-bytes accounting all read it.
package state

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
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

// slot is one key's state in a group's slab: an unboxed float64 fast lane
// and the accounted size. A structured payload for the slot, if any, sits at
// the same index of the group's aux lane.
type slot struct {
	key   uint64
	val   float64
	bytes int32
	live  bool
}

// Cloner is implemented by structured payloads that their owners mutate
// in place between Puts. A checkpoint stores CloneState's result instead of
// the live payload, and a restore clones again, so neither a checkpoint nor a
// restored group aliases state that keeps changing.
type Cloner interface{ CloneState() any }

// cloneAux copies an aux lane into dst's storage for a checkpoint or a
// restore, deep-copying the payloads that implement Cloner. A nil lane
// stays nil.
func cloneAux(dst, aux []any) []any {
	if aux == nil {
		return nil
	}
	dst = slices.Grow(dst[:0], len(aux))
	for _, v := range aux {
		if c, ok := v.(Cloner); ok {
			v = c.CloneState()
		}
		dst = append(dst, v)
	}
	return dst
}

const (
	// hashMul is the key index's multiplicative hash, 2^64 divided by the
	// golden ratio: the top bits of key*hashMul pick a key's home bucket.
	hashMul = 0x9e3779b97f4a7c15
	// A key-index table is at most loadNum/loadDen full, so every probe
	// sequence ends at an empty bucket.
	loadNum, loadDen = 3, 4
	// minIndexLen is the smallest key-index table.
	minIndexLen = 8
)

// indexEntry maps a key to its slot. ref is the slot number plus one, so the
// zero entry is an empty bucket.
type indexEntry struct {
	key uint64
	ref int32
}

// keyIndex is an open-addressing table from key to slot: linear probing over
// a power-of-two table. Deletion shifts later entries of the probe run back
// instead of leaving tombstones.
type keyIndex struct {
	table []indexEntry
	shift uint // 64 - log2(len(table))
	n     int
}

// indexLen is the table length for n keys: the smallest power of two, at
// least minIndexLen, that n keys do not fill past the load limit.
func indexLen(n int) int {
	size := minIndexLen
	for loadDen*n > loadNum*size {
		size *= 2
	}
	return size
}

// alloc replaces the table with an empty one of size buckets, a power of two.
func (x *keyIndex) alloc(size int) {
	x.table = make([]indexEntry, size)
	x.shift = uint(65 - bits.Len(uint(size)))
}

func (x *keyIndex) home(key uint64) int { return int(key * hashMul >> x.shift) }

// find returns the bucket holding key and true, or the empty bucket that
// ends key's probe sequence and false (-1 when there is no table yet).
func (x *keyIndex) find(key uint64) (int, bool) {
	if len(x.table) == 0 {
		return -1, false
	}
	mask := len(x.table) - 1
	for b := x.home(key); ; b = (b + 1) & mask {
		e := &x.table[b]
		if e.ref == 0 {
			return b, false
		}
		if e.key == key {
			return b, true
		}
	}
}

// get returns key's slot.
func (x *keyIndex) get(key uint64) (int32, bool) {
	b, ok := x.find(key)
	if !ok {
		return 0, false
	}
	return x.table[b].ref - 1, true
}

// set places key, which is absent, at slot i in the empty bucket b that find
// returned for it, first doubling the table when one more key would fill it
// past the load limit.
func (x *keyIndex) set(b int, key uint64, i int32) {
	if loadDen*(x.n+1) > loadNum*len(x.table) {
		x.reserve(x.n + 1)
		b = x.empty(key)
	}
	x.table[b] = indexEntry{key: key, ref: i + 1}
	x.n++
}

// reserve rehashes the table into one sized for n keys, unless it already
// holds n keys within the load limit.
func (x *keyIndex) reserve(n int) {
	if loadDen*n <= loadNum*len(x.table) {
		return
	}
	old := x.table
	x.alloc(indexLen(n))
	for _, e := range old {
		if e.ref != 0 {
			x.table[x.empty(e.key)] = e
		}
	}
}

// empty returns the first empty bucket of key's probe sequence.
func (x *keyIndex) empty(key uint64) int {
	mask := len(x.table) - 1
	b := x.home(key)
	for x.table[b].ref != 0 {
		b = (b + 1) & mask
	}
	return b
}

// remove empties bucket b, then walks the rest of its probe run moving back
// every entry whose home lies no later than the hole, so lookups that used
// to pass through b still find their key.
func (x *keyIndex) remove(b int) {
	mask := len(x.table) - 1
	for j := (b + 1) & mask; x.table[j].ref != 0; j = (j + 1) & mask {
		if (j-x.home(x.table[j].key))&mask >= (j-b)&mask {
			x.table[b] = x.table[j]
			b = j
		}
	}
	x.table[b] = indexEntry{}
	x.n--
}

// Group is the state of one key group: a slab of slots indexed by key, with
// a free list recycling deleted slots.
type Group struct {
	index keyIndex
	slots []slot
	// aux holds the structured payload of slot i at aux[i] (nil for a
	// fast-lane entry). The lane is nil until the group first stores one;
	// from then on it is as long as slots.
	aux  []any
	free []int32
	// frozen is the group's checkpoint copy, cached until the next write;
	// the cache is one of the copy's holders.
	frozen *FrozenGroup
	// Bytes is the group's accounted size (the sum of entry sizes).
	Bytes int
}

// Len reports the number of keys with state in the group.
func (g *Group) Len() int { return g.index.n }

// auxAt returns slot i's structured payload, or nil for a fast-lane entry.
func (g *Group) auxAt(i int32) any {
	if g.aux == nil {
		return nil
	}
	return g.aux[i]
}

// put is the shared insert/replace path; value semantics are split across
// the two lanes by the callers.
func (g *Group) put(key uint64, val float64, aux any, bytes int) {
	if bytes > math.MaxInt32 {
		panic(fmt.Sprintf("state: entry of %d bytes for key %d exceeds the int32 slot size", bytes, key))
	}
	g.unfreeze()
	b, ok := g.index.find(key)
	var i int32
	if ok {
		i = g.index.table[b].ref - 1
		s := &g.slots[i]
		g.Bytes += bytes - int(s.bytes)
		s.val, s.bytes = val, int32(bytes)
	} else {
		if n := len(g.free); n > 0 {
			i = g.free[n-1]
			g.free = g.free[:n-1]
		} else {
			g.slots = append(g.slots, slot{})
			if g.aux != nil {
				g.aux = append(g.aux, nil)
			}
			i = int32(len(g.slots) - 1)
		}
		g.slots[i] = slot{key: key, val: val, bytes: int32(bytes), live: true}
		g.index.set(b, key, i)
		g.Bytes += bytes
	}
	if aux != nil && g.aux == nil {
		g.aux = make([]any, len(g.slots), cap(g.slots))
	}
	if g.aux != nil {
		g.aux[i] = aux
	}
}

// PutF64 inserts or replaces a key's state with an unboxed float64,
// maintaining byte accounting. This is the record hot path.
func (g *Group) PutF64(key uint64, v float64, bytes int) { g.put(key, v, nil, bytes) }

// Put inserts or replaces a key's state, maintaining byte accounting.
// float64 values land in the fast lane; everything else rides in the aux
// lane. Hot paths should call PutF64 directly. A payload its owner mutates
// in place must be Put again after each change, and should implement
// Cloner so checkpoints hold a point-in-time copy of it.
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
	i, ok := g.index.get(key)
	if !ok || g.auxAt(i) != nil {
		return 0, false
	}
	return g.slots[i].val, true
}

// Get returns the state for key: the aux payload if present, else the boxed
// fast-lane value. Hot paths should call GetF64 to avoid the boxing.
func (g *Group) Get(key uint64) (any, bool) {
	i, ok := g.index.get(key)
	if !ok {
		return nil, false
	}
	if aux := g.auxAt(i); aux != nil {
		return aux, true
	}
	return g.slots[i].val, true
}

// Delete removes a key's state, recycling its slot.
func (g *Group) Delete(key uint64) {
	b, ok := g.index.find(key)
	if !ok {
		return
	}
	g.unfreeze()
	i := g.index.table[b].ref - 1
	g.index.remove(b)
	s := &g.slots[i]
	g.Bytes -= int(s.bytes)
	*s = slot{}
	if g.aux != nil {
		g.aux[i] = nil
	}
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
		if aux := g.auxAt(int32(i)); aux != nil {
			fn(s.key, aux, int(s.bytes))
		} else {
			fn(s.key, s.val, int(s.bytes))
		}
	}
}

// Keys returns the group's keys in slab (insertion) order.
func (g *Group) Keys() []uint64 {
	return g.AppendKeys(make([]uint64, 0, g.Len()))
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

// reserve makes room for n more keys: slab capacity beyond the free list and
// a key index sized for them, so inserting them neither regrows the slab nor
// rehashes the index.
func (g *Group) reserve(n int) {
	if extra := n - len(g.free); extra > 0 {
		g.slots = slices.Grow(g.slots, extra)
	}
	g.index.reserve(g.index.n + n)
}

// Merge folds other into g (InstallGroup onto a group already local), entry
// by entry with Put accounting, without boxing fast-lane values.
func (g *Group) Merge(other *Group) { g.merge(other.slots, other.aux, other.Len()) }

// merge puts the n live entries of a slab into g in slab order, reserving
// room for them once. aux is the slab's aux lane: empty, or as long as slots.
func (g *Group) merge(slots []slot, aux []any, n int) {
	g.reserve(n)
	for i := range slots {
		if s := &slots[i]; s.live {
			var a any
			if len(aux) > 0 {
				a = aux[i]
			}
			g.put(s.key, s.val, a, int(s.bytes))
		}
	}
}

// FrozenGroup is a checkpoint copy of a group: its slab, aux lane, free list
// and byte total, without the key index. It serves no reads; Thaw makes a
// live copy.
//
// A copy counts its holders: each snapshot that contains it, and each group
// whose frozen cache points at it (the group that froze it, and any group
// Thaw made from it). It is never mutated while the count is above zero.
// When the last holder lets go, the copy returns to the pool it was drawn
// from, and a later freeze refills it. A group dropped while it still holds
// a copy (a dead store, a migrated chunk lost in flight) never lets go, so
// that copy is left to the garbage collector: a missed release leaks, it
// never hands out a copy something still reads.
type FrozenGroup struct {
	slots []slot
	aux   []any
	free  []int32
	bytes int
	holds int
	pool  *FrozenPool
}

// release drops one hold on the copy, returning it to its pool when no
// holder is left.
func (f *FrozenGroup) release() {
	if f.holds--; f.holds == 0 && f.pool != nil {
		clear(f.aux) // drop the payloads; the lane's storage stays
		c := sizeClass(cap(f.slots))
		f.pool.free[c] = append(f.pool.free[c], f)
	}
}

// FrozenPool takes back frozen copies that nothing holds any more, so that
// checkpoints refill them instead of allocating fresh ones. free[c] holds the
// copies of slab capacity 1<<c, which a refill never outgrows. The zero value
// is ready to use; a nil pool recycles nothing.
type FrozenPool struct{ free [32][]*FrozenGroup }

// sizeClass returns the size class of an n-slot slab: the smallest c with
// n <= 1<<c. A slab's int32 slot numbers keep it below 32.
func sizeClass(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// get returns a copy for freeze to refill with n slots: a pooled one from n's
// size class, or a new one made at that class's capacity when the class is
// empty. A nil pool returns an empty copy, which the refill sizes exactly.
func (p *FrozenPool) get(n int) *FrozenGroup {
	if p == nil {
		return &FrozenGroup{}
	}
	c := sizeClass(n)
	if free := p.free[c]; len(free) > 0 {
		f := free[len(free)-1]
		p.free[c] = free[:len(free)-1]
		return f
	}
	return &FrozenGroup{slots: make([]slot, 0, 1<<c), pool: p}
}

// freeze returns the group's checkpoint copy with one hold taken for the
// caller, who releases it when done. A group not written since its last
// freeze (or since the Thaw that made it) returns that same copy; otherwise
// freeze refills a copy drawn from pool (nil allowed) with the slab, free
// list and aux lane — deep-copying Cloner payloads, sharing the rest, which
// are replaced wholesale on Put — and caches it, holding it, until the next
// write. Checkpoints never alias live slabs.
func (g *Group) freeze(pool *FrozenPool) *FrozenGroup {
	f := g.frozen
	if f == nil {
		f = pool.get(len(g.slots))
		f.slots = append(f.slots[:0], g.slots...)
		f.aux = cloneAux(f.aux, g.aux)
		f.free = append(f.free[:0], g.free...)
		f.bytes = g.Bytes
		f.holds = 1
		g.frozen = f
	}
	f.holds++
	return f
}

// unfreeze drops the group's cached copy and its hold on it; every write
// does this first.
func (g *Group) unfreeze() {
	if f := g.frozen; f != nil {
		g.frozen = nil
		f.release()
	}
}

// Thaw returns a live copy of the frozen group, rebuilding the key index from
// the live slots in one table sized for them and deep-copying Cloner
// payloads. The frozen copy is left intact, so a restore never hands a
// checkpoint's only copy to a store that will keep mutating it, and one
// checkpoint can be thawed any number of times. Until its first write, the
// thawed group's own checkpoint copy is f, which it holds.
func (f *FrozenGroup) Thaw() *Group {
	f.holds++
	g := &Group{
		slots:  append([]slot(nil), f.slots...),
		aux:    cloneAux(nil, f.aux),
		free:   append([]int32(nil), f.free...),
		frozen: f,
		Bytes:  f.bytes,
	}
	if n := len(f.slots) - len(f.free); n > 0 {
		g.index.alloc(indexLen(n))
		for i := range g.slots {
			if s := &g.slots[i]; s.live {
				g.index.table[g.index.empty(s.key)] = indexEntry{key: s.key, ref: int32(i) + 1}
			}
		}
		g.index.n = n
	}
	return g
}

// Store is the keyed state of one operator instance: the subset of key groups
// currently local to it. groups is a window over the key groups
// [lo, lo+len(groups)), holding nil for each key group in it that is not
// local; it grows at either end to cover what the store owns and resets when
// the store owns nothing.
type Store struct {
	MaxKeyGroups int
	lo           int
	groups       []*Group
	owned        int
}

// NewStore returns a store that owns no key groups yet.
func NewStore(maxKeyGroups int) *Store {
	if maxKeyGroups <= 0 {
		panic("state: maxKeyGroups must be positive")
	}
	return &Store{MaxKeyGroups: maxKeyGroups}
}

// cell returns kg's place in the window, growing the window to cover it. A
// key group outside [0, MaxKeyGroups) panics: every caller takes key groups
// from KeyGroupOf or KeyGroupRange, so one out of range is a bug.
func (s *Store) cell(kg int) **Group {
	if kg < 0 || kg >= s.MaxKeyGroups {
		panic(fmt.Sprintf("state: key group %d outside [0, %d)", kg, s.MaxKeyGroups))
	}
	switch n := len(s.groups); {
	case n == 0:
		s.lo, s.groups = kg, append(s.groups, nil)
	case kg < s.lo:
		grown := make([]*Group, s.lo-kg+n)
		copy(grown[s.lo-kg:], s.groups)
		s.lo, s.groups = kg, grown
	case kg >= s.lo+n:
		s.groups = append(s.groups, make([]*Group, kg+1-s.lo-n)...)
	}
	return &s.groups[kg-s.lo]
}

// OwnGroup declares kg local (idempotent), creating an empty group if absent.
func (s *Store) OwnGroup(kg int) *Group {
	if g := s.Group(kg); g != nil {
		return g
	}
	g := &Group{}
	*s.cell(kg) = g
	s.owned++
	return g
}

// HasGroup reports whether kg is local.
func (s *Store) HasGroup(kg int) bool { return s.Group(kg) != nil }

// Group returns the local group for kg, or nil.
func (s *Store) Group(kg int) *Group {
	if i := uint(kg - s.lo); i < uint(len(s.groups)) {
		return s.groups[i]
	}
	return nil
}

// Groups walks the local key groups in ascending order, yielding each with
// its group, without copying the list. The walk must not make key groups
// local or remove them; a caller that does collects the key groups first.
func (s *Store) Groups() iter.Seq2[int, *Group] {
	return func(yield func(int, *Group) bool) {
		for i, g := range s.groups {
			if g != nil && !yield(s.lo+i, g) {
				return
			}
		}
	}
}

// Len reports how many key groups are local.
func (s *Store) Len() int { return s.owned }

// Get returns the state for key, which must hash into a local group. Hot
// paths use GetF64.
func (s *Store) Get(key uint64) (any, bool) {
	g := s.Group(KeyGroupOf(key, s.MaxKeyGroups))
	if g == nil {
		return nil, false
	}
	return g.Get(key)
}

// GetF64 returns the unboxed fast-lane state for key (ok is false when the
// key is absent, holds an aux payload, or its group is not local).
func (s *Store) GetF64(key uint64) (float64, bool) {
	g := s.Group(KeyGroupOf(key, s.MaxKeyGroups))
	if g == nil {
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
	g := s.Group(kg)
	if g == nil {
		panic(fmt.Sprintf("state: Put(key=%d) into non-local key group %d", key, kg))
	}
	return g
}

// TotalBytes reports the accounted size of all local state.
func (s *Store) TotalBytes() int {
	var sum int
	for _, g := range s.groups {
		if g != nil {
			sum += g.Bytes
		}
	}
	return sum
}

// KeyCount reports the number of keys with state across local groups.
func (s *Store) KeyCount() int {
	var n int
	for _, g := range s.groups {
		if g != nil {
			n += g.Len()
		}
	}
	return n
}

// ExtractGroup removes kg from the store and returns it (the migration
// source path). Returns an empty group if kg was local but empty, nil if not
// local.
func (s *Store) ExtractGroup(kg int) *Group {
	g := s.Group(kg)
	if g == nil {
		return nil
	}
	s.groups[kg-s.lo] = nil
	if s.owned--; s.owned == 0 {
		s.groups = s.groups[:0]
	}
	return g
}

// InstallGroup makes kg local with the given contents, merging if the group
// already exists (fetch-back paths can interleave with background chunks).
func (s *Store) InstallGroup(kg int, g *Group) {
	if g == nil {
		g = &Group{}
	}
	if cur := s.Group(kg); cur != nil {
		cur.Merge(g)
		g.unfreeze() // g is folded in and dropped
		return
	}
	*s.cell(kg) = g
	s.owned++
}

// Chunk is a sub-unit in transit: slots in their source's slab order, an aux
// lane (empty, or as long as slots) and a byte total, with no key index and
// no free list. ExtractSubUnit fills it and InstallChunk empties it, keeping
// its storage for the next sub-unit. The zero value is an empty chunk.
type Chunk struct {
	slots []slot
	aux   []any
	// Bytes is the chunk's accounted size (the sum of entry sizes).
	Bytes int
}

// Len reports the number of keys in the chunk.
func (c *Chunk) Len() int { return len(c.slots) }

// reset empties the chunk, dropping its payloads and keeping its storage.
func (c *Chunk) reset() {
	clear(c.aux)
	c.slots, c.aux, c.Bytes = c.slots[:0], c.aux[:0], 0
}

// ExtractSubUnit moves the keys of kg that fall into sub-unit sub of n into
// dst, replacing what dst held, in slot order, deleting each from kg as it
// goes. The key group itself stays local (Meces keeps serving the
// remainder). dst is left empty if kg is not local.
func (s *Store) ExtractSubUnit(kg, sub, n int, dst *Chunk) {
	dst.reset()
	g := s.Group(kg)
	if g == nil {
		return
	}
	for i := range g.slots {
		sl := &g.slots[i]
		if !sl.live || SubUnitOf(sl.key, n) != sub {
			continue
		}
		dst.slots = append(dst.slots, *sl)
		if g.aux != nil {
			dst.aux = append(dst.aux, g.aux[i])
		}
		dst.Bytes += int(sl.bytes)
		g.Delete(sl.key)
	}
}

// InstallChunk makes kg local, creating an empty group if absent, and moves
// the chunk's entries into it in the chunk's order with Put accounting,
// reserving room for them once. The chunk is left empty for reuse.
func (s *Store) InstallChunk(kg int, c *Chunk) {
	s.OwnGroup(kg).merge(c.slots, c.aux, len(c.slots))
	c.reset()
}

// Snapshot is a frozen copy of a store's groups. Like Store, it is a window
// over the key groups [lo, lo+len(groups)), holding nil for each key group in
// it that was not local. It holds each copy it contains until Release.
type Snapshot struct {
	lo     int
	groups []*FrozenGroup
}

// Group returns the frozen copy of kg, or nil when kg was not local.
func (snap *Snapshot) Group(kg int) *FrozenGroup {
	if i := uint(kg - snap.lo); i < uint(len(snap.groups)) {
		return snap.groups[i]
	}
	return nil
}

// Release drops the snapshot's hold on every copy it contains and empties
// it, keeping its window's storage for the next SnapshotTo.
func (snap *Snapshot) Release() {
	for _, f := range snap.groups {
		if f != nil {
			f.release()
		}
	}
	clear(snap.groups)
	snap.groups = snap.groups[:0]
}

// Snapshot freezes a copy of every local group, drawing on no pool. Nothing
// releases the result, so the copies it holds never return to a pool.
func (s *Store) Snapshot() Snapshot {
	var snap Snapshot
	s.SnapshotTo(&snap, nil)
	return snap
}

// SnapshotTo freezes a copy of every local group into dst, which must be
// empty (zero or released), reusing its window's storage. New copies are
// refilled from pool when it has any; pool may be nil.
func (s *Store) SnapshotTo(dst *Snapshot, pool *FrozenPool) {
	dst.lo = s.lo
	dst.groups = slices.Grow(dst.groups[:0], len(s.groups))[:len(s.groups)]
	for i, g := range s.groups {
		if g != nil {
			dst.groups[i] = g.freeze(pool)
		}
	}
}

// Restore replaces the store contents with thawed copies of a snapshot.
func (s *Store) Restore(snap Snapshot) {
	clear(s.groups)
	s.groups, s.owned = s.groups[:0], 0
	for i, f := range snap.groups {
		if f != nil {
			*s.cell(snap.lo + i) = f.Thaw()
			s.owned++
		}
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
