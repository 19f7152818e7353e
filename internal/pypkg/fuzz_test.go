package pypkg

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseVersion: no input may panic, a rejected one fails with a pypkg:
// error, and an accepted one re-parses from its String to an equal value.
func FuzzParseVersion(f *testing.F) {
	// The cases of TestParseVersion and TestVersionCompare.
	for _, s := range []string{"1.2.3", "1.2", "3", " 2.10.7 ", "", "1.2.3.4", "a.b", "1.-2",
		"1.0.0", "2.0.0", "1.1.9", "1.1.4"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseVersion(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "pypkg: ") {
				t.Fatalf("ParseVersion(%q) error %q lacks the pypkg: prefix", s, err)
			}
			return
		}
		again, err := ParseVersion(v.String())
		if err != nil || again != v {
			t.Fatalf("ParseVersion(%q) = %v, but its String %q re-parses to %v, %v", s, v, v.String(), again, err)
		}
	})
}

// FuzzParseSpec: no input may panic, a rejected one fails with a pypkg:
// error, and an accepted one re-parses from its String to an equal value.
func FuzzParseSpec(f *testing.F) {
	// The specs of TestParseSpec and TestSpecString, and the lines of the
	// requirements tests.
	for _, s := range []string{"tensorflow>=2.1,<2.3", "numpy", "Scikit_Learn==0.23.2",
		"", ">=1.0", "numpy>=", "numpy=1.0", "numpy>=x.y", "numpy>=1.18,<1.20",
		"numpy==1.18.1", "scipy>=1.4,<2   ", "Coffea", "-r other.txt", "numpy==x",
		"tensorflow>=2.1.0,<2.3.0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "pypkg: ") {
				t.Fatalf("ParseSpec(%q) error %q lacks the pypkg: prefix", s, err)
			}
			return
		}
		again, err := ParseSpec(spec.String())
		if err != nil || again.Name != spec.Name || !slices.Equal(again.Constraints, spec.Constraints) {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q re-parses to %+v, %v", s, spec, spec.String(), again, err)
		}
	})
}
