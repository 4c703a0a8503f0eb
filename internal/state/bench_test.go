package state

import "testing"

// BenchmarkStatePutGet measures the keyed-reduce hot path against the state
// backend: one read-modify-write per op over a working set large enough to
// defeat tiny-cache effects, exactly the access pattern KeyedReduceLogic
// performs per record (the float64 fast lane; the boxed Put/Get compat path
// is off the record path and is not gated).
func BenchmarkStatePutGet(b *testing.B) {
	const keys = 4096
	s := NewStore(128)
	for kg := 0; kg < 128; kg++ {
		s.OwnGroup(kg)
	}
	for k := uint64(1); k <= keys; k++ {
		s.PutF64(k, float64(k), 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%keys) + 1
		acc, _ := s.GetF64(k)
		s.PutF64(k, acc+1, 64)
	}
}

// BenchmarkStatePutGetWide is BenchmarkStatePutGet on one instance of a
// wide job: 1024 key groups over parallelism 256, so the store owns 4 of
// them and every key hashes into one of those 4.
func BenchmarkStatePutGetWide(b *testing.B) {
	const keys = 4096
	s := NewStore(1024)
	start, end := KeyGroupRange(1024, 256, 100)
	for kg := start; kg < end; kg++ {
		s.OwnGroup(kg)
	}
	ks := make([]uint64, 0, keys)
	for k := uint64(1); len(ks) < keys; k++ {
		if s.HasGroup(KeyGroupOf(k, 1024)) {
			ks = append(ks, k)
			s.PutF64(k, float64(k), 64)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := ks[i%keys]
		acc, _ := s.GetF64(k)
		s.PutF64(k, acc+1, 64)
	}
}

// BenchmarkStateMigrateGroup measures the migration unit operations every
// scaling mechanism is built from: extract a populated key group from one
// store, install it into another, then move it back.
func BenchmarkStateMigrateGroup(b *testing.B) {
	const keys = 8192
	src := NewStore(8)
	dst := NewStore(8)
	for kg := 0; kg < 8; kg++ {
		src.OwnGroup(kg)
		dst.OwnGroup(kg)
	}
	for k := uint64(1); k <= keys; k++ {
		src.PutF64(k, float64(k), 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kg := i % 8
		dst.InstallGroup(kg, src.ExtractGroup(kg))
		src.InstallGroup(kg, dst.ExtractGroup(kg))
	}
}

// BenchmarkStateSubUnitMigrate measures the Meces-style migration unit: one
// sub-unit of a populated key group extracted into a reused chunk, installed
// into another store, then moved back the same way. Groups of 64 keys give
// sub-units of about 16, the order of the ten-key mean of the chunks Meces
// moves in a faulted run.
func BenchmarkStateSubUnitMigrate(b *testing.B) {
	const keys, subUnits = 512, 4
	src := NewStore(8)
	dst := NewStore(8)
	for kg := 0; kg < 8; kg++ {
		src.OwnGroup(kg)
		dst.OwnGroup(kg)
	}
	for k := uint64(1); k <= keys; k++ {
		src.PutF64(k, float64(k), 64)
	}
	var c Chunk
	round := func(i int) {
		kg, sub := i%8, i/8%subUnits
		src.ExtractSubUnit(kg, sub, subUnits, &c)
		dst.InstallChunk(kg, &c)
		dst.ExtractSubUnit(kg, sub, subUnits, &c)
		src.InstallChunk(kg, &c)
	}
	// One pass over every sub-unit grows the chunk and both stores' groups
	// to fit, so the timed loop measures the steady state.
	for i := 0; i < 8*subUnits; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}
