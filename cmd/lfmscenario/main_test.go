package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestParseArgs checks that leading positionals are peeled off before the
// flags, that flags after a name still parse, and that trailing
// positionals are appended.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantPos []string
		seed    int64
		json    string
	}{
		{"empty", nil, nil, 0, ""},
		{"positional only", []string{"heavy-tail"}, []string{"heavy-tail"}, 0, ""},
		{"name before flags", []string{"heavy-tail", "-seed", "7", "-json", "out.json"},
			[]string{"heavy-tail"}, 7, "out.json"},
		{"flags before name", []string{"-seed", "7", "heavy-tail"}, []string{"heavy-tail"}, 7, ""},
		{"two leading positionals", []string{"a", "b", "-seed=11", "c"}, []string{"a", "b", "c"}, 11, ""},
		{"flag value that looks positional", []string{"-json", "heavy-tail"}, nil, 0, "heavy-tail"},
		{"double dash", []string{"x", "--", "-seed"}, []string{"x", "-seed"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			seed := fs.Int64("seed", 0, "")
			js := fs.String("json", "", "")
			pos := parseArgs(fs, tc.args)
			if len(pos) == 0 {
				pos = nil
			}
			if !reflect.DeepEqual(pos, tc.wantPos) {
				t.Errorf("positionals = %q, want %q", pos, tc.wantPos)
			}
			if *seed != tc.seed || *js != tc.json {
				t.Errorf("seed, json = %d, %q, want %d, %q", *seed, *js, tc.seed, tc.json)
			}
		})
	}
}
