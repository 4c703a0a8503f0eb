package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpec checks the -faults grammar on arbitrary input: ParseSpec
// returns an error and never panics, and a plan it accepts renders through
// Spec to a string that parses back to the very same plan.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"crash@12s:node=r1n0,restart=6s",
		"straggle@15s:node=r0n1,factor=0.3,heal=10s",
		"uplink@14s:rack=r0,bw=262144,heal=8s",
		"uplink@14s:rack=r0,bw=0,heal=8s;ckpt=2s;recovery=1s",
		"crash@12s:node=r0n1,restart=6s;ckpt=2s",
		"retry=2;crash@18.5s:node=r0n0",
		"retry=2;crash@10.958s:node=r0n3,restart=5.514s;" +
			"straggle@12.455s:node=r0n1,factor=0.30000000000000004,heal=6.668s;" +
			"crash@16.125s:node=r0n2,restart=6.446s;crash@16.77s:node=r0n3,restart=6.23s;" +
			"straggle@18.096s:node=r0n0,factor=0.2,heal=11.708s",
		"retry=3;retrybase=250ms;retrycap=2s;crash@1s:node=n0,jitter=0.1",
		"recovery=off;crash@1s:node=n0",
		" ; crash@1s:node=n0 ; ",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		q, err := ParseSpec(p.Spec())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its Spec %q does not parse: %v", spec, p.Spec(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParseSpec(%q) = %+v, but its Spec %q parses to %+v", spec, p, p.Spec(), q)
		}
	})
}
