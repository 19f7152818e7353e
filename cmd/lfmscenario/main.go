// Command lfmscenario drives the canned scenario suite — the repo's
// regression gate — and the bit-exact trace replay machinery.
//
// Usage:
//
//	lfmscenario list
//	lfmscenario describe NAME
//	lfmscenario run NAME [-seed N] [-json FILE] [-archive FILE]
//	lfmscenario run -all [-json FILE]
//	lfmscenario record NAME [-seed N] -o TRACE [-summary FILE]
//	lfmscenario replay TRACE [-summary FILE]
//	lfmscenario export [-refresh] [-readme FILE] [-experiments FILE] [-json FILE]
//
// `run` executes scenarios and prints each invariant's verdict, exiting
// nonzero if any fails (`-archive` also writes the run's lfmdiff archive,
// scheduler event stream included). `record` captures a scenario run as a
// versioned JSONL trace; `replay` re-runs a trace byte-identically and
// fails on outcome-digest divergence. `export` runs the whole suite and renders
// the scenario catalog and regression tables; with `-refresh` it splices
// them between the marker comments in README.md and EXPERIMENTS.md, which
// is how those sections are generated (CI regenerates and fails on drift).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"lfm"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(args)
	case "describe":
		err = cmdDescribe(args)
	case "run":
		err = cmdRun(args)
	case "record":
		err = cmdRecord(args)
	case "replay":
		err = cmdReplay(args)
	case "export":
		err = cmdExport(args)
	default:
		fmt.Fprintf(os.Stderr, "lfmscenario: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfmscenario: %v\n", err)
		var verdict *verdictError
		if errors.As(err, &verdict) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// verdictError marks a run that completed but failed its verdict — broken
// invariants or a diverged replay digest. main exits 3 for these (versus 1
// for operational errors), so CI can tell "the run regressed" apart from
// "the tool fell over".
type verdictError struct {
	msg string
}

func (e *verdictError) Error() string { return e.msg }

func verdictf(format string, args ...any) error {
	return &verdictError{msg: fmt.Sprintf(format, args...)}
}

// parseArgs lets subcommands accept their positional name before or after
// the flags (Go's flag package stops at the first non-flag token). Leading
// non-flag tokens are peeled off, the rest are flag-parsed, and any
// trailing positionals are appended.
func parseArgs(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		pos = append(pos, args[0])
		args = args[1:]
	}
	fs.Parse(args)
	return append(pos, fs.Args()...)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  lfmscenario list
  lfmscenario describe NAME
  lfmscenario run NAME [-seed N] [-json FILE] [-archive FILE]
  lfmscenario run -all [-json FILE]
  lfmscenario record NAME [-seed N] -o TRACE [-summary FILE]
  lfmscenario replay TRACE [-summary FILE]
  lfmscenario export [-refresh] [-readme FILE] [-experiments FILE] [-json FILE]
`)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	parseArgs(fs, args)
	for _, s := range lfm.AllScenarios() {
		fmt.Printf("%-18s %s\n", s.Name, s.Summary)
	}
	return nil
}

func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	pos := parseArgs(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("describe needs exactly one scenario name")
	}
	s, err := lfm.ScenarioByName(pos[0])
	if err != nil {
		return err
	}
	fmt.Printf("%s — %s\n\n", s.Name, s.Summary)
	fmt.Printf("%s\n\n", s.Details)
	fmt.Printf("default seed:    %d\n", s.Seed)
	fmt.Printf("headline metric: %s\n", s.Headline)
	fmt.Println("invariants:")
	for _, iv := range s.Invariants {
		fmt.Printf("  %-28s %s\n", iv.Name, iv.Detail)
	}
	return nil
}

// runOne executes a scenario and prints its verdict block.
func runOne(s *lfm.Scenario, seed int64) (*lfm.ScenarioResult, error) {
	r, err := s.Run(seed)
	if err != nil {
		return nil, err
	}
	printResult(r)
	return r, nil
}

// runArchived executes a scenario with the observability plane and a
// scheduler trace attached and writes its run archive (event stream
// included, so `lfmdiff explain` can bisect it).
func runArchived(s *lfm.Scenario, seed int64, path string) (*lfm.ScenarioResult, error) {
	r, arch, err := lfm.RunScenarioArchived(s, lfm.ScenarioArchiveOptions{Seed: seed, Events: true})
	if err != nil {
		return nil, err
	}
	data, err := lfm.WriteRunArchive(arch)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	printResult(r)
	fmt.Printf("  archive -> %s (%d bytes, %d events)\n", path, len(data), len(arch.Events))
	return r, nil
}

// printResult prints one scenario result's verdict block.
func printResult(r *lfm.ScenarioResult) {
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Printf("%-18s %s  (seed %d)\n", r.Scenario, verdict, r.Seed)
	for _, m := range r.Metrics {
		unit := m.Unit
		if unit != "" {
			unit = " " + unit
		}
		fmt.Printf("    %-26s %g%s\n", m.Name, m.Value, unit)
	}
	for _, iv := range r.Invariants {
		mark := "ok  "
		if !iv.OK {
			mark = "FAIL"
		}
		fmt.Printf("  %s %-28s %s\n", mark, iv.Name, iv.Detail)
		if !iv.OK {
			fmt.Printf("       -> %s\n", iv.Error)
		}
	}
}

// writeResults writes the results array as indented JSON.
func writeResults(path string, results []*lfm.ScenarioResult) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	all := fs.Bool("all", false, "run every canned scenario")
	seed := fs.Int64("seed", 0, "override the scenario's default seed (single-scenario runs only)")
	jsonOut := fs.String("json", "", "write the results array as JSON to this file")
	archive := fs.String("archive", "", "write the run's archive (with the scheduler event stream, for lfmdiff) to this file; single-scenario runs only")
	pos := parseArgs(fs, args)

	var results []*lfm.ScenarioResult
	switch {
	case *all:
		if len(pos) != 0 {
			return fmt.Errorf("run -all takes no scenario names")
		}
		if *archive != "" {
			return fmt.Errorf("run -archive needs a single scenario name")
		}
		for _, s := range lfm.AllScenarios() {
			r, err := runOne(s, 0)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	case len(pos) == 1:
		s, err := lfm.ScenarioByName(pos[0])
		if err != nil {
			return err
		}
		var r *lfm.ScenarioResult
		if *archive != "" {
			r, err = runArchived(s, *seed, *archive)
		} else {
			r, err = runOne(s, *seed)
		}
		if err != nil {
			return err
		}
		results = append(results, r)
	default:
		return fmt.Errorf("run needs a scenario name or -all")
	}
	if err := writeResults(*jsonOut, results); err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		if !r.Passed {
			failed++
		}
	}
	if failed > 0 {
		return verdictf("%d of %d scenarios failed their invariants", failed, len(results))
	}
	fmt.Printf("%d scenario(s) passed\n", len(results))
	return nil
}

// writeSummary writes the run's unified summary JSON.
func writeSummary(path string, out *lfm.Outcome) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return out.WriteSummaryJSON(f)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the scenario's default seed")
	out := fs.String("o", "", "trace output file (required)")
	summary := fs.String("summary", "", "also write the recording run's summary JSON here")
	pos := parseArgs(fs, args)
	if len(pos) != 1 || *out == "" {
		return fmt.Errorf("record needs a scenario name and -o TRACE")
	}
	s, err := lfm.ScenarioByName(pos[0])
	if err != nil {
		return err
	}
	r, data, err := s.Record(*seed, nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if err := writeSummary(*summary, r.Outcome); err != nil {
		return err
	}
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Printf("recorded %s (seed %d, %s) -> %s (%d bytes)\n",
		r.Scenario, r.Seed, verdict, *out, len(data))
	if !r.Passed {
		return verdictf("scenario %s failed its invariants during recording", r.Scenario)
	}
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	summary := fs.String("summary", "", "write the replayed run's summary JSON here")
	pos := parseArgs(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("replay needs exactly one trace file")
	}
	data, err := os.ReadFile(pos[0])
	if err != nil {
		return err
	}
	ro, err := lfm.ReplayScenarioTrace(data, nil)
	if err != nil {
		return err
	}
	if err := writeSummary(*summary, ro.Outcome); err != nil {
		return err
	}
	match := "MATCH"
	if ro.Digest != ro.RecordedDigest {
		match = "DIVERGED"
	}
	fmt.Printf("replayed %s (%s, %d tasks): digest %s\n",
		ro.Header.Scenario, ro.Header.Workload, len(ro.Workload.Tasks), match)
	fmt.Printf("  recorded %s\n  replayed %s\n", ro.RecordedDigest, ro.Digest)
	if err := ro.Verify(); err != nil {
		return &verdictError{msg: err.Error()}
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	refresh := fs.Bool("refresh", false, "splice the generated tables into the docs instead of printing them")
	readme := fs.String("readme", "README.md", "file holding the scenario catalog markers")
	experiments := fs.String("experiments", "EXPERIMENTS.md", "file holding the regression table markers")
	jsonOut := fs.String("json", "", "write the results array as JSON to this file")
	parseArgs(fs, args)

	var results []*lfm.ScenarioResult
	for _, s := range lfm.AllScenarios() {
		r, err := s.Run(0)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	if err := writeResults(*jsonOut, results); err != nil {
		return err
	}
	catalog := lfm.ScenarioCatalog()
	table := lfm.ScenarioRegressionTable(results)
	if !*refresh {
		fmt.Println("## Scenario catalog")
		fmt.Println()
		fmt.Print(catalog)
		fmt.Println()
		fmt.Println("## Scenario regression table")
		fmt.Println()
		fmt.Print(table)
		return nil
	}
	changedReadme, err := lfm.RefreshScenarioSection(*readme, lfm.ScenarioCatalogBegin, lfm.ScenarioCatalogEnd, catalog)
	if err != nil {
		return err
	}
	changedExp, err := lfm.RefreshScenarioSection(*experiments, lfm.ScenarioRegressionBegin, lfm.ScenarioRegressionEnd, table)
	if err != nil {
		return err
	}
	status := func(changed bool) string {
		if changed {
			return "updated"
		}
		return "up to date"
	}
	fmt.Printf("%s: %s\n%s: %s\n", *readme, status(changedReadme), *experiments, status(changedExp))
	failed := []string{}
	for _, r := range results {
		if !r.Passed {
			failed = append(failed, r.Scenario)
		}
	}
	if len(failed) > 0 {
		return verdictf("scenarios failed while exporting: %s", strings.Join(failed, ", "))
	}
	return nil
}
