package state

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyGroupOfStableAndInRange(t *testing.T) {
	for key := uint64(0); key < 10000; key++ {
		kg := KeyGroupOf(key, 128)
		if kg < 0 || kg >= 128 {
			t.Fatalf("key %d → group %d out of range", key, kg)
		}
		if kg != KeyGroupOf(key, 128) {
			t.Fatalf("key %d unstable", key)
		}
	}
}

func TestKeyGroupOfSpread(t *testing.T) {
	counts := make([]int, 16)
	for key := uint64(0); key < 16000; key++ {
		counts[KeyGroupOf(key, 16)]++
	}
	for kg, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("group %d badly balanced: %d", kg, c)
		}
	}
}

func TestSubUnitOfRange(t *testing.T) {
	for key := uint64(0); key < 1000; key++ {
		if s := SubUnitOf(key, 4); s < 0 || s >= 4 {
			t.Fatalf("sub unit %d", s)
		}
	}
	if SubUnitOf(123, 1) != 0 || SubUnitOf(123, 0) != 0 {
		t.Fatal("degenerate sub unit should be 0")
	}
}

func TestGroupPutDeleteAccounting(t *testing.T) {
	g := &Group{}
	g.Put(1, "a", 10)
	g.Put(2, "b", 20)
	if g.Bytes != 30 {
		t.Fatalf("bytes %d", g.Bytes)
	}
	g.Put(1, "a2", 15) // replace
	if g.Bytes != 35 {
		t.Fatalf("bytes after replace %d", g.Bytes)
	}
	g.Delete(2)
	if g.Bytes != 15 || g.Len() != 1 {
		t.Fatalf("after delete: %d bytes, %d entries", g.Bytes, g.Len())
	}
	g.Delete(99) // no-op
	if g.Bytes != 15 {
		t.Fatal("deleting absent key changed accounting")
	}
}

func TestStorePutGetPanicsOnNonLocal(t *testing.T) {
	s := NewStore(8)
	key := uint64(42)
	kg := KeyGroupOf(key, 8)
	s.OwnGroup(kg)
	s.Put(key, 7, 8)
	if v, ok := s.Get(key); !ok || v.(int) != 7 {
		t.Fatalf("get %v %v", v, ok)
	}
	var other uint64
	for other = 0; KeyGroupOf(other, 8) == kg; other++ {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put into non-local group must panic")
		}
	}()
	s.Put(other, 1, 1)
}

func TestStoreGetMissing(t *testing.T) {
	s := NewStore(8)
	if _, ok := s.Get(1); ok {
		t.Fatal("missing group should report !ok")
	}
	s.OwnGroup(KeyGroupOf(1, 8))
	if _, ok := s.Get(1); ok {
		t.Fatal("missing key should report !ok")
	}
}

func TestStoreExtractInstall(t *testing.T) {
	a := NewStore(8)
	b := NewStore(8)
	var keys []uint64
	for k := uint64(0); len(keys) < 5; k++ {
		if KeyGroupOf(k, 8) == 3 {
			keys = append(keys, k)
		}
	}
	a.OwnGroup(3)
	for i, k := range keys {
		a.Put(k, i, 10)
	}
	if a.GroupBytes(3) != 50 {
		t.Fatalf("bytes %d", a.GroupBytes(3))
	}
	g := a.ExtractGroup(3)
	if g == nil || a.HasGroup(3) {
		t.Fatal("extract failed")
	}
	if a.ExtractGroup(3) != nil {
		t.Fatal("double extract should return nil")
	}
	b.InstallGroup(3, g)
	for i, k := range keys {
		if v, ok := b.Get(k); !ok || v.(int) != i {
			t.Fatalf("key %d lost in migration", k)
		}
	}
	if b.TotalBytes() != 50 {
		t.Fatalf("total %d", b.TotalBytes())
	}
}

func TestStoreInstallMerges(t *testing.T) {
	s := NewStore(8)
	s.OwnGroup(2)
	g := &Group{}
	var k uint64
	for ; KeyGroupOf(k, 8) != 2; k++ {
	}
	g.Put(k, "x", 5)
	s.InstallGroup(2, g)
	if v, ok := s.Get(k); !ok || v.(string) != "x" {
		t.Fatal("merge install lost entry")
	}
	s.InstallGroup(5, nil)
	if !s.HasGroup(5) {
		t.Fatal("nil install should create empty group")
	}
}

func TestExtractSubUnitPartition(t *testing.T) {
	s := NewStore(4)
	kg := 1
	s.OwnGroup(kg)
	var keys []uint64
	for k := uint64(0); len(keys) < 200; k++ {
		if KeyGroupOf(k, 4) == kg {
			keys = append(keys, k)
			s.Put(k, k, 4)
		}
	}
	total := s.GroupBytes(kg)
	var gotKeys, gotBytes int
	var c Chunk // one chunk, refilled for every sub-unit
	for sub := 0; sub < 4; sub++ {
		s.ExtractSubUnit(kg, sub, 4, &c)
		gotKeys += c.Len()
		gotBytes += c.Bytes
		for _, sl := range c.slots {
			if SubUnitOf(sl.key, 4) != sub {
				t.Fatalf("key %d in wrong sub unit", sl.key)
			}
		}
	}
	if gotKeys != len(keys) || gotBytes != total {
		t.Fatalf("sub units hold %d keys in %d bytes, want %d in %d", gotKeys, gotBytes, len(keys), total)
	}
	if s.GroupBytes(kg) != 0 {
		t.Fatalf("residual bytes %d of %d", s.GroupBytes(kg), total)
	}
	s.ExtractSubUnit(3, 0, 4, &c)
	if c.Len() != 0 || c.Bytes != 0 {
		t.Fatalf("extraction from a non-local key group left %d keys in %d bytes", c.Len(), c.Bytes)
	}
}

// TestSubUnitRoundTripAllocs checks that moving sub-units back and forth
// through one reused chunk allocates nothing once the chunk and both groups
// have grown to fit.
func TestSubUnitRoundTripAllocs(t *testing.T) {
	src, dst := NewStore(1), NewStore(1)
	for k := uint64(1); k <= 400; k++ {
		src.OwnGroup(0).PutF64(k, float64(k), 8)
	}
	var c Chunk
	sub := 0
	round := func() {
		src.ExtractSubUnit(0, sub, 4, &c)
		dst.InstallChunk(0, &c)
		dst.ExtractSubUnit(0, sub, 4, &c)
		src.InstallChunk(0, &c)
		sub = (sub + 1) % 4
	}
	for range 4 {
		round()
	}
	if avg := testing.AllocsPerRun(40, round); avg != 0 {
		t.Fatalf("a sub-unit round trip allocates %v times", avg)
	}
	if n := src.KeyCount(); n != 400 {
		t.Fatalf("%d keys after the round trips, want 400", n)
	}
}

// TestFrozenPoolRefillAllocs checks that checkpoint copies of a small and a
// large group, refilled in turn through one pool, allocate nothing once each
// size class holds a copy: a refill draws from its own class and never
// regrows a copy the other group left.
func TestFrozenPoolRefillAllocs(t *testing.T) {
	var pool FrozenPool
	small, large := &Group{}, &Group{}
	for k := uint64(1); k <= 300; k++ {
		if k <= 10 {
			small.PutF64(k, 0, 8)
		}
		large.PutF64(k, 0, 8)
	}
	var step float64
	order := []*Group{small, large, large, small}
	round := func() {
		for _, g := range order {
			f := g.freeze(&pool)
			step++
			g.PutF64(1, step, 8) // the write drops the group's hold
			f.release()          // and this the last, pooling the copy
		}
	}
	round()
	if avg := testing.AllocsPerRun(40, round); avg != 0 {
		t.Fatalf("a round of refills allocates %v times", avg)
	}
}

func TestSnapshotRestoreIsolated(t *testing.T) {
	s := NewStore(8)
	kg := KeyGroupOf(7, 8)
	s.OwnGroup(kg)
	s.Put(7, "v1", 2)
	snap := s.Snapshot()
	s.Put(7, "v2", 2)
	s2 := NewStore(8)
	s2.Restore(snap)
	if v, _ := s2.Get(7); v.(string) != "v1" {
		t.Fatalf("snapshot not isolated: %v", v)
	}
	if v, _ := s.Get(7); v.(string) != "v2" {
		t.Fatal("original store mutated by snapshot")
	}
	if s2.KeyCount() != 1 {
		t.Fatalf("restored key count %d", s2.KeyCount())
	}
}

// TestRestoredGroupMatchesDeepClone checks that a snapshot, which keeps no
// key index, restores to a group indistinguishable from a deep clone taken at
// the same instant: same key order, bytes and length, and the same slot
// reused after a Delete then a Put.
func TestRestoredGroupMatchesDeepClone(t *testing.T) {
	// Replaying one operation sequence builds an independent deep clone.
	build := func() *Store {
		s := NewStore(1)
		g := s.OwnGroup(0)
		for k := uint64(1); k <= 50; k++ {
			g.PutF64(k, float64(k), int(k%7)+1)
		}
		g.Put(7, "pane", 33)
		for _, k := range []uint64{4, 19, 20, 33} {
			g.Delete(k)
		}
		g.PutF64(60, 1, 9) // reuses slot 32, leaving a free list behind
		return s
	}
	live, clone := build(), build()
	snap := live.Snapshot()
	live.PutF64(61, 1, 1) // after the snapshot: must not leak into it
	restored := NewStore(1)
	restored.Restore(snap)
	got, want := restored.Group(0), clone.Group(0)
	same := func(step string) {
		t.Helper()
		gk, wk := got.Keys(), want.Keys()
		if len(gk) != len(wk) {
			t.Fatalf("%s: %d keys, deep clone has %d", step, len(gk), len(wk))
		}
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("%s: key %d is %d, deep clone has %d", step, i, gk[i], wk[i])
			}
		}
		if got.Bytes != want.Bytes || got.Len() != want.Len() {
			t.Fatalf("%s: %d bytes in %d keys, deep clone %d in %d", step, got.Bytes, got.Len(), want.Bytes, want.Len())
		}
	}
	same("restored")
	// The first Put draws on the restored free list, the second on the slot
	// the Delete just freed.
	for _, g := range []*Group{got, want} {
		g.PutF64(1000, 1, 8)
		g.Delete(10)
		g.PutF64(1001, 1, 8)
	}
	for _, k := range []uint64{1000, 1001} {
		gi, _ := got.index.get(k, got.slots)
		wi, _ := want.index.get(k, want.slots)
		if gi != wi {
			t.Fatalf("key %d took slot %d, deep clone slot %d", k, gi, wi)
		}
	}
	same("after Delete then Put")
	// Neither the live group's writes nor the restored group's reach the
	// snapshot.
	again := NewStore(1)
	again.Restore(snap)
	_, has10 := again.Get(10)
	_, has61 := again.Get(61)
	_, has1000 := again.Get(1000)
	if !has10 || has61 || has1000 {
		t.Fatalf("snapshot changed after it was taken: key 10 %v, 61 %v, 1000 %v", has10, has61, has1000)
	}
}

func TestKeyGroupRangePartition(t *testing.T) {
	for _, tc := range []struct{ maxKG, p int }{{128, 8}, {128, 12}, {256, 25}, {256, 30}, {7, 3}} {
		covered := make([]int, tc.maxKG)
		prevEnd := 0
		for i := 0; i < tc.p; i++ {
			s, e := KeyGroupRange(tc.maxKG, tc.p, i)
			if s != prevEnd {
				t.Fatalf("maxKG=%d p=%d i=%d: gap %d != %d", tc.maxKG, tc.p, i, s, prevEnd)
			}
			prevEnd = e
			for kg := s; kg < e; kg++ {
				covered[kg]++
			}
		}
		if prevEnd != tc.maxKG {
			t.Fatalf("maxKG=%d p=%d: coverage ends at %d", tc.maxKG, tc.p, prevEnd)
		}
		for kg, c := range covered {
			if c != 1 {
				t.Fatalf("kg %d covered %d times", kg, c)
			}
		}
	}
}

func TestOwnerOfMatchesRange(t *testing.T) {
	for _, tc := range []struct{ maxKG, p int }{{128, 8}, {128, 12}, {256, 30}, {16, 5}} {
		for kg := 0; kg < tc.maxKG; kg++ {
			owner := OwnerOf(tc.maxKG, tc.p, kg)
			s, e := KeyGroupRange(tc.maxKG, tc.p, owner)
			if kg < s || kg >= e {
				t.Fatalf("maxKG=%d p=%d kg=%d: owner %d range [%d,%d)", tc.maxKG, tc.p, kg, owner, s, e)
			}
		}
	}
}

// groupList collects a store's local key groups in walk order.
func groupList(s *Store) []int {
	var out []int
	for kg := range s.Groups() {
		out = append(out, kg)
	}
	return out
}

func TestStoreGroupsSorted(t *testing.T) {
	s := NewStore(16)
	for _, kg := range []int{9, 3, 12, 0} {
		s.OwnGroup(kg)
	}
	gs := groupList(s)
	want := []int{0, 3, 9, 12}
	for i, kg := range want {
		if gs[i] != kg {
			t.Fatalf("groups %v", gs)
		}
	}
	if s.Len() != len(want) {
		t.Fatalf("Len %d, want %d", s.Len(), len(want))
	}
	for kg, g := range s.Groups() {
		if g != s.Group(kg) {
			t.Fatalf("walk yields a different group for key group %d", kg)
		}
		if kg == 3 {
			break // an early break ends the walk
		}
	}
}

// TestStoreKeyGroupWindow checks the key-group window of a wide store: it
// grows at both ends to cover what the store owns, reads outside it miss
// without a panic, it resets once the store owns nothing, a key group
// outside [0, MaxKeyGroups) is refused loudly, and an instance's store spans
// no more than its own key-group range.
func TestStoreKeyGroupWindow(t *testing.T) {
	s := NewStore(1024)
	for _, kg := range []int{900, 3, 512} {
		s.OwnGroup(kg)
	}
	if gs := groupList(s); len(gs) != 3 || gs[0] != 3 || gs[1] != 512 || gs[2] != 900 {
		t.Fatalf("groups %v, want [3 512 900]", gs)
	}
	if s.lo != 3 || len(s.groups) != 900-3+1 {
		t.Fatalf("window [%d, %d), want [3, 901)", s.lo, s.lo+len(s.groups))
	}
	for _, kg := range []int{-1, 0, 4, 1024} {
		if s.HasGroup(kg) || s.Group(kg) != nil {
			t.Fatalf("key group %d reads as local", kg)
		}
	}
	for _, kg := range []int{512, 900, 3} {
		if s.ExtractGroup(kg) == nil {
			t.Fatalf("key group %d not extracted", kg)
		}
	}
	if gs := groupList(s); len(gs) != 0 || s.Len() != 0 || len(s.groups) != 0 {
		t.Fatalf("after extracting everything: groups %v, window of %d", gs, len(s.groups))
	}
	s.OwnGroup(7)
	if s.lo != 7 || len(s.groups) != 1 {
		t.Fatalf("window after reset is [%d, %d), want [7, 8)", s.lo, s.lo+len(s.groups))
	}

	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"OwnGroup(1024)", "key group 1024", func() { s.OwnGroup(1024) }},
		{"InstallGroup(-1)", "key group -1", func() { s.InstallGroup(-1, &Group{}) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("%s: panic %q, want one naming %q", tc.name, msg, tc.want)
				}
			}()
			tc.call()
		}()
	}

	for i := 0; i < 256; i++ {
		start, end := KeyGroupRange(1024, 256, i)
		s := NewStore(1024)
		for kg := start; kg < end; kg++ {
			s.OwnGroup(kg)
		}
		if s.lo != start || len(s.groups) > end-start {
			t.Fatalf("instance %d owns [%d, %d) in window [%d, %d)", i, start, end, s.lo, s.lo+len(s.groups))
		}
	}
}

func TestMigrationRoundTripProperty(t *testing.T) {
	// Property: extracting all groups from one store and installing them in
	// another preserves every (key, value) pair and total bytes.
	f := func(keys []uint64) bool {
		a := NewStore(32)
		for kg := 0; kg < 32; kg++ {
			a.OwnGroup(kg)
		}
		for i, k := range keys {
			a.Put(k, i, int(k%100)+1)
		}
		wantBytes := a.TotalBytes()
		wantCount := a.KeyCount()
		b := NewStore(32)
		for _, kg := range groupList(a) {
			b.InstallGroup(kg, a.ExtractGroup(kg))
		}
		if b.TotalBytes() != wantBytes || b.KeyCount() != wantCount {
			return false
		}
		for i, k := range keys {
			v, ok := b.Get(k)
			if !ok {
				return false
			}
			// Later duplicates overwrite earlier ones; accept any index with
			// the same key value mapping as final store state. Verify final
			// occurrence only.
			_ = i
			_ = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPutRejectsEntryOverInt32 checks that an entry size the slot cannot
// hold panics with a message instead of wrapping.
func TestPutRejectsEntryOverInt32(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exceeds the int32 slot size") {
			t.Fatalf("panic %q, want the int32 slot-size message", msg)
		}
	}()
	(&Group{}).PutF64(1, 0, math.MaxInt32+1)
}
