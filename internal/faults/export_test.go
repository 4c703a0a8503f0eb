package faults

import "drrs/internal/engine"

// Checkpointer exposes the injector's state checkpointer (nil-safe).
func (inj *Injector) Checkpointer() *engine.StateCheckpointer {
	if inj == nil {
		return nil
	}
	return inj.ck
}
