package engine

import "drrs/internal/netsim"

// State exposes the native handler's cursor to the equivalence test.
func (h *NativeHandler) State() (rr int, stuck *netsim.Edge) { return h.rr, h.stuck }
