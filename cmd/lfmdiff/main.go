// Command lfmdiff is the differential observability tool: it compares two
// run archives metric by metric, explains determinism breaks by bisecting
// to the first divergent scheduler event, and gates the canned scenario
// suite against committed baseline archives.
//
// Usage:
//
//	lfmdiff compare BASE.lfma CAND.lfma [-rel F] [-json FILE]
//	lfmdiff explain BASE.lfma CAND.lfma
//	lfmdiff gate [-baselines DIR] [-scenarios a,b] [-rel F]
//	             [-perturb NAME] [-refresh] [-json FILE] [-md FILE]
//
// `compare` prints the classified metric table (exit 3 when anything
// regressed). `explain` handles the "same config, different digest" case:
// it binary-searches both archives' scheduler event streams to the first
// divergent event and exits 3 on divergence. `gate` re-runs the canned
// scenarios and diffs each against baselines/NAME.lfma, failing (exit 3)
// on any regression beyond the noise thresholds — `make diff` wires it
// into CI. `-refresh` rewrites the baselines instead (review the git diff
// before committing, mirroring `lfmscenario export -refresh`). `-perturb`
// applies a named config mutation to the fresh runs, the gate's
// self-test: a perturbed gate run must fail. The one perturbation is
// workers-halved, which halves every scenario's worker pool.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lfm"
)

// exitRegression is the exit status for "the comparison worked and found a
// regression / divergence" — distinct from 1 (operational error) and 2
// (usage), mirroring the other CLIs' unhealthy-verdict convention.
const exitRegression = 3

// errRegression marks verdict failures so main can exit with
// exitRegression instead of 1.
type errRegression struct{ msg string }

func (e *errRegression) Error() string { return e.msg }

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
	case "compare":
		err = cmdCompare(os.Stdout, args)
	case "explain":
		err = cmdExplain(os.Stdout, args)
	case "gate":
		err = cmdGate(os.Stdout, args)
	default:
		fmt.Fprintf(os.Stderr, "lfmdiff: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfmdiff: %v\n", err)
		var reg *errRegression
		if errors.As(err, &reg) {
			os.Exit(exitRegression)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  lfmdiff compare BASE.lfma CAND.lfma [-rel F] [-json FILE]
  lfmdiff explain BASE.lfma CAND.lfma
  lfmdiff gate [-baselines DIR] [-scenarios a,b] [-rel F]
               [-perturb NAME] [-refresh] [-json FILE] [-md FILE]
`)
}

// parseArgs peels leading positionals off before flag parsing, so
// `lfmdiff compare a b -json r.json` and `lfmdiff compare -json r.json a b`
// both work (same idiom as lfmscenario).
func parseArgs(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		pos = append(pos, args[0])
		args = args[1:]
	}
	fs.Parse(args)
	return append(pos, fs.Args()...)
}

// loadArchive reads and validates one archive file.
func loadArchive(path string) (*lfm.RunArchive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := lfm.ReadRunArchive(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// thresholds builds the noise model from the -rel override (0 keeps the
// default).
func thresholds(rel float64) *lfm.DiffThresholds {
	th := lfm.DefaultDiffThresholds()
	if rel > 0 {
		th.Rel = rel
	}
	return th
}

// renderReport prints the classified metric table plus attribution.
func renderReport(w io.Writer, r *lfm.DiffReport) {
	fmt.Fprintf(w, "base: %s seed %d (%s)\n", refName(r.Base), r.Base.Seed, r.Base.Tool)
	fmt.Fprintf(w, "cand: %s seed %d (%s)\n", refName(r.Cand), r.Cand.Seed, r.Cand.Tool)
	fmt.Fprintf(w, "same config: %v   digest match: %v\n\n", r.SameConfig, r.DigestMatch)
	fmt.Fprintf(w, "  %-28s %14s %14s %14s %8s  %s\n", "metric", "base", "cand", "delta", "rel", "class")
	for _, m := range r.Metrics {
		mark := " "
		switch m.Class {
		case lfm.DiffRegressed:
			mark = "!"
		case lfm.DiffImproved:
			mark = "+"
		}
		rel := ""
		if m.Rel != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*m.Rel)
		}
		fmt.Fprintf(w, "%s %-28s %14.6g %14.6g %+14.6g %8s  %s\n",
			mark, m.Name, m.Base, m.Cand, m.Delta, rel, m.Class)
	}
	fmt.Fprintf(w, "\n%d improved, %d regressed, %d neutral\n", r.Improved, r.Regressed, r.Neutral)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if at := r.Attribution; at != nil {
		fmt.Fprintf(w, "\nattribution:\n")
		for i, b := range at.Buckets {
			if i == 3 {
				fmt.Fprintf(w, "  ... %d more bucket(s)\n", len(at.Buckets)-i)
				break
			}
			fmt.Fprintf(w, "  bucket %-20s %+.3gs total (queue %+.3gs, exec %+.3gs, waste %+.3gs)\n",
				b.Group, b.Total, b.Queue, b.Exec, b.Waste)
		}
		for _, p := range at.Phases {
			fmt.Fprintf(w, "  critical-path %-12s %+.3gs (%.4g -> %.4g)\n", p.Kind, p.Delta, p.Base, p.Cand)
		}
		for _, f := range at.FindingsAdded {
			fmt.Fprintf(w, "  finding added:   %s\n", f)
		}
		for _, f := range at.FindingsRemoved {
			fmt.Fprintf(w, "  finding removed: %s\n", f)
		}
	}
}

func refName(r lfm.DiffRunRef) string {
	if r.Scenario != "" {
		return r.Scenario
	}
	return r.Workload
}

// regressionError summarizes regressed metrics as the failure message —
// the gate's contract is "nonzero, naming the metric and delta".
func regressionError(prefix string, r *lfm.DiffReport) error {
	parts := make([]string, 0, r.Regressed)
	for _, m := range r.Regressions() {
		parts = append(parts, fmt.Sprintf("%s %+.4g (%.4g -> %.4g)", m.Name, m.Delta, m.Base, m.Cand))
	}
	return &errRegression{msg: prefix + "regressed: " + strings.Join(parts, ", ")}
}

func writeJSON(path string, v any) error {
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
	return enc.Encode(v)
}

func cmdCompare(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	rel := fs.Float64("rel", 0, "override the relative noise threshold (default 0.05)")
	jsonOut := fs.String("json", "", "write the DiffReport as JSON to this file")
	pos := parseArgs(fs, args)
	if len(pos) != 2 {
		return fmt.Errorf("compare needs exactly two archive files")
	}
	base, err := loadArchive(pos[0])
	if err != nil {
		return err
	}
	cand, err := loadArchive(pos[1])
	if err != nil {
		return err
	}
	r := lfm.DiffArchives(base, cand, thresholds(*rel))
	renderReport(w, r)
	if err := writeJSON(*jsonOut, r); err != nil {
		return err
	}
	if r.Regressed > 0 {
		return regressionError("", r)
	}
	return nil
}

func cmdExplain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	pos := parseArgs(fs, args)
	if len(pos) != 2 {
		return fmt.Errorf("explain needs exactly two archive files")
	}
	base, err := loadArchive(pos[0])
	if err != nil {
		return err
	}
	cand, err := loadArchive(pos[1])
	if err != nil {
		return err
	}
	return explain(w, base, cand)
}

// explain handles the determinism triage: identical digests need no
// explanation, different configs explain themselves, and same-config
// digest mismatches get bisected to the first divergent scheduler event.
func explain(w io.Writer, base, cand *lfm.RunArchive) error {
	r := lfm.DiffArchives(base, cand, nil)
	switch {
	case r.DigestMatch:
		fmt.Fprintf(w, "outcome digests match (%s): the runs are identical\n", base.Header.Digest)
		return nil
	case !r.SameConfig:
		fmt.Fprintf(w, "configs differ: the runs are different experiments, not a determinism break\n")
		fmt.Fprintf(w, "(use `lfmdiff compare` for the metric-level diff)\n")
		return nil
	}
	if len(base.Events) == 0 || len(cand.Events) == 0 {
		return fmt.Errorf("same config but digests differ, and %s archive has no event stream: re-archive with events (lfmscenario run -archive writes them)",
			map[bool]string{true: "the base", false: "the candidate"}[len(base.Events) == 0])
	}
	d := lfm.BisectEventStreams(base.Events, cand.Events)
	if d == nil {
		fmt.Fprintf(w, "digests differ but the %d-event scheduler streams are identical: the divergence is outside the event stream (summary/telemetry layer)\n", len(base.Events))
		return &errRegression{msg: "digest mismatch not attributable to the event stream"}
	}
	fmt.Fprintf(w, "same config, digests differ: first divergence at %s\n", d)
	fmt.Fprintf(w, "(%d events compared; everything before index %d is identical)\n",
		len(base.Events), d.Index)
	return &errRegression{msg: fmt.Sprintf("determinism break at event %d", d.Index)}
}

// gateEntry is one scenario's gate outcome in the JSON artifact.
type gateEntry struct {
	Scenario string          `json:"scenario"`
	Baseline string          `json:"baseline,omitempty"`
	Error    string          `json:"error,omitempty"`
	Report   *lfm.DiffReport `json:"report,omitempty"`
}

// gateReport is the `lfmdiff gate -json` artifact.
type gateReport struct {
	SchemaVersion int         `json:"schema_version"`
	Perturb       string      `json:"perturb,omitempty"`
	Entries       []gateEntry `json:"entries"`
}

func cmdGate(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	dir := fs.String("baselines", "baselines", "directory of committed baseline archives")
	names := fs.String("scenarios", "", "comma-separated scenario subset (default: all canned scenarios)")
	rel := fs.Float64("rel", 0, "override the relative noise threshold (default 0.05)")
	perturb := fs.String("perturb", "", "apply a named config perturbation to the fresh runs (gate self-test; must fail); one of "+strings.Join(lfm.DiffPerturbationNames(), ", "))
	refresh := fs.Bool("refresh", false, "rewrite the baseline archives from fresh runs instead of diffing")
	jsonOut := fs.String("json", "", "write the gate report as JSON to this file")
	mdOut := fs.String("md", "", "write the gate summary as a markdown table to this file")
	pos := parseArgs(fs, args)
	if len(pos) != 0 {
		return fmt.Errorf("gate takes no positional arguments (use -scenarios)")
	}
	var list []string
	if *names != "" {
		list = strings.Split(*names, ",")
	} else {
		for _, s := range lfm.AllScenarios() {
			list = append(list, s.Name)
		}
	}
	sort.Strings(list)

	var customize func(*lfm.RunConfig)
	if *perturb != "" {
		if *refresh {
			return fmt.Errorf("-perturb with -refresh would commit perturbed baselines")
		}
		fn, err := lfm.DiffPerturbation(*perturb)
		if err != nil {
			return err
		}
		customize = fn
	}

	rep := gateReport{SchemaVersion: 1, Perturb: *perturb}
	failures := 0
	for _, name := range list {
		s, err := lfm.ScenarioByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, s.Name+".lfma")
		entry := gateEntry{Scenario: s.Name, Baseline: path}
		// Baselines are written without the event stream: the gate
		// compares metrics, and compact baselines keep the git history
		// reviewable. `lfmscenario run -archive` writes events for
		// bisection work.
		_, arch, err := lfm.RunScenarioArchived(s, lfm.ScenarioArchiveOptions{Customize: customize})
		if err != nil {
			return err
		}
		if *refresh {
			data, err := lfm.WriteRunArchive(arch)
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "%-18s baseline refreshed (%d bytes)\n", s.Name, len(data))
			rep.Entries = append(rep.Entries, entry)
			continue
		}
		baseline, err := loadArchive(path)
		if err != nil {
			entry.Error = err.Error()
			rep.Entries = append(rep.Entries, entry)
			failures++
			fmt.Fprintf(w, "%-18s ERROR %v\n", s.Name, err)
			continue
		}
		r := lfm.DiffArchives(baseline, arch, thresholds(*rel))
		entry.Report = r
		rep.Entries = append(rep.Entries, entry)
		verdict := "ok"
		if r.Regressed > 0 {
			verdict = "REGRESSED"
			failures++
		}
		fmt.Fprintf(w, "%-18s %-9s %d improved, %d regressed, %d neutral\n",
			s.Name, verdict, r.Improved, r.Regressed, r.Neutral)
		for _, m := range r.Regressions() {
			fmt.Fprintf(w, "    ! %-28s %+.4g (%.4g -> %.4g)\n", m.Name, m.Delta, m.Base, m.Cand)
		}
	}
	if err := writeJSON(*jsonOut, rep); err != nil {
		return err
	}
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(gateMarkdown(&rep)), 0o644); err != nil {
			return err
		}
	}
	if *refresh {
		fmt.Fprintf(w, "%d baseline(s) written to %s — review the git diff before committing\n", len(rep.Entries), *dir)
		return nil
	}
	if failures > 0 {
		return gateFailure(&rep, failures)
	}
	fmt.Fprintf(w, "%d scenario(s) within thresholds\n", len(rep.Entries))
	return nil
}

// gateFailure names every regressed metric and its delta — the one-line
// contract `make diff` surfaces in CI logs.
func gateFailure(rep *gateReport, failures int) error {
	var parts []string
	for _, e := range rep.Entries {
		if e.Error != "" {
			parts = append(parts, fmt.Sprintf("%s: %s", e.Scenario, e.Error))
			continue
		}
		if e.Report == nil || e.Report.Regressed == 0 {
			continue
		}
		for _, m := range e.Report.Regressions() {
			parts = append(parts, fmt.Sprintf("%s: %s %+.4g", e.Scenario, m.Name, m.Delta))
		}
	}
	return &errRegression{msg: fmt.Sprintf("%d scenario(s) regressed — %s", failures, strings.Join(parts, "; "))}
}

// gateMarkdown renders the improved/regressed/neutral table CI posts to
// the job summary.
func gateMarkdown(rep *gateReport) string {
	var b strings.Builder
	b.WriteString("### lfmdiff gate\n\n")
	if rep.Perturb != "" {
		fmt.Fprintf(&b, "perturbation: `%s` (self-test)\n\n", rep.Perturb)
	}
	b.WriteString("| scenario | improved | regressed | neutral | verdict |\n")
	b.WriteString("|---|---:|---:|---:|---|\n")
	for _, e := range rep.Entries {
		switch {
		case e.Error != "":
			fmt.Fprintf(&b, "| %s | – | – | – | error: %s |\n", e.Scenario, e.Error)
		case e.Report == nil:
			fmt.Fprintf(&b, "| %s | – | – | – | refreshed |\n", e.Scenario)
		default:
			verdict := "✅ ok"
			if e.Report.Regressed > 0 {
				verdict = "❌ regressed"
			}
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %s |\n",
				e.Scenario, e.Report.Improved, e.Report.Regressed, e.Report.Neutral, verdict)
		}
	}
	var details []string
	for _, e := range rep.Entries {
		if e.Report == nil {
			continue
		}
		for _, m := range e.Report.Regressions() {
			details = append(details, fmt.Sprintf("- `%s` **%s** %+.4g (%.4g → %.4g)",
				e.Scenario, m.Name, m.Delta, m.Base, m.Cand))
		}
	}
	if len(details) > 0 {
		b.WriteString("\nRegressed metrics:\n\n")
		b.WriteString(strings.Join(details, "\n"))
		b.WriteString("\n")
	}
	return b.String()
}
