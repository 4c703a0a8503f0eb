// Package atomic is a minimal stub of sync/atomic for hermetic analyzer
// tests.
package atomic

func AddUint64(addr *uint64, delta uint64) uint64             { return 0 }
func LoadUint64(addr *uint64) uint64                          { return 0 }
func StoreUint64(addr *uint64, val uint64)                    {}
func AddInt64(addr *int64, delta int64) int64                 { return 0 }
func LoadInt64(addr *int64) int64                             { return 0 }
func StoreInt64(addr *int64, val int64)                       {}
func CompareAndSwapUint64(addr *uint64, old, new uint64) bool { return false }

type Uint64 struct{ v uint64 }

func (x *Uint64) Load() uint64            { return 0 }
func (x *Uint64) Add(delta uint64) uint64 { return 0 }
func (x *Uint64) Store(val uint64)        {}

type Bool struct{ v uint32 }

func (x *Bool) Load() bool         { return false }
func (x *Bool) Store(val bool)     {}
func (x *Bool) Swap(new bool) bool { return false }
