package control

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseInterventions checks the -counterfactual grammar on arbitrary
// input: ParseInterventions returns an error and never panics, and the
// interventions it accepts render through String, joined with ';', to a spec
// that parses back to the very same slice.
func FuzzParseInterventions(f *testing.F) {
	for _, seed := range []string{
		"k=2:noop",
		"k=1:target=12",
		"all:delay=2s",
		"k=0:target=14",
		"all:noop",
		"k=1:target=12,delay=2s;all:noop",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ivs, err := ParseInterventions(spec)
		if err != nil {
			return
		}
		parts := make([]string, len(ivs))
		for i, iv := range ivs {
			parts[i] = iv.String()
		}
		back := strings.Join(parts, ";")
		again, err := ParseInterventions(back)
		if err != nil {
			t.Fatalf("ParseInterventions(%q) accepted, but its rendering %q does not parse: %v", spec, back, err)
		}
		if !reflect.DeepEqual(ivs, again) {
			t.Fatalf("ParseInterventions(%q) = %+v, but its rendering %q parses to %+v", spec, ivs, back, again)
		}
	})
}
