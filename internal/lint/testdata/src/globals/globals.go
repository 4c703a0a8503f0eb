// Package globals exercises the globalstate analyzer: outside package main,
// no package-level variable may be written after its declaration.
package globals

import (
	"sync/atomic"

	"globals/internal/shared"
)

// The old mixed atomic/plain counter: every access form that writes is
// flagged, the atomic one included.
var scaleIDs uint64

func nextID() uint64 {
	return atomic.AddUint64(&scaleIDs, 1) // want `address taken of package-level variable scaleIDs`
}

func bumpIDs() uint64 {
	scaleIDs++      // want `\+\+ on package-level variable scaleIDs`
	scaleIDs = 0    // want `assignment to package-level variable scaleIDs`
	scaleIDs += 2   // want `assignment to package-level variable scaleIDs`
	return scaleIDs // a read is not a write
}

// The old recovery switch: a typed atomic is still process-global state,
// and both of its pointer-receiver calls take its address.
var disableRecovery atomic.Bool

func SetDisableRecovery(v bool) bool {
	return disableRecovery.Swap(v) // want `pointer-receiver method Swap called on package-level variable disableRecovery`
}

func recoveryDisabled() bool {
	return disableRecovery.Load() // want `pointer-receiver method Load called on package-level variable disableRecovery`
}

// The old scenario registry, filled from init.
var (
	registry = map[string]int{}
	regOrder []string
)

func init() {
	registry["q7"] = 1                // want `assignment to package-level variable registry`
	regOrder = append(regOrder, "q7") // want `assignment to package-level variable regOrder`
}

type config struct {
	Limit int
	Tags  [4]string
}

func (c *config) Set(n int) { c.Limit = n }

func (c config) Get() int { return c.Limit }

var (
	cfg    config
	table  = []int{1, 2, 3}
	ptr    = new(int)
	cursor int
	tally  int
)

func writes(m map[int]int) {
	cfg.Limit = 3          // want `assignment to package-level variable cfg`
	cfg.Tags[1] = "x"      // want `assignment to package-level variable cfg`
	table[0] = 9           // want `assignment to package-level variable table`
	*ptr = 2               // want `assignment to package-level variable ptr`
	(cursor) = 4           // want `assignment to package-level variable cursor`
	cursor, tally = 1, 2   // want `assignment to package-level variable cursor` `assignment to package-level variable tally`
	tally--                // want `-- on package-level variable tally`
	for cursor = range m { // want `range assignment to package-level variable cursor`
	}
	shared.Limit = 5 // want `assignment to package-level variable Limit`
	_ = &cfg.Limit   // want `address taken of package-level variable cfg`
	_ = &table[1]    // want `address taken of package-level variable table`
	cfg.Set(1)       // want `pointer-receiver method Set called on package-level variable cfg`
	set := cfg.Set   // want `pointer-receiver method Set called on package-level variable cfg`
	set(2)
}

// Read-only package state stays legal.

var kinds = []string{"crash", "straggle", "uplink"}

var origin = config{Limit: 1}

// matcher is a pointer global used the way a compiled regexp is: read
// through, never reassigned.
var matcher = &config{Limit: 2}

type sentinel string

func (e sentinel) Error() string { return string(e) }

var ErrUnknown error = sentinel("unknown kind")

var _ error = sentinel("")

type setter interface{ Set(int) }

var _ setter = (*config)(nil)

func reads(name string) (int, error) {
	for i, k := range kinds {
		if k == name {
			return i + origin.Get() + matcher.Limit + shared.Limit + table[0] + len(regOrder), nil
		}
	}
	local := 0
	local++
	scaleIDs := uint64(local) // shadows the global: a local write
	scaleIDs++
	var c config
	c.Set(int(scaleIDs))
	return c.Limit, ErrUnknown
}
