package chaos

import (
	"sort"
	"strings"
	"testing"

	"lfm/internal/sim"
)

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name    string
		sched   Schedule
		wantErr string // empty: must validate
	}{
		{name: "empty", sched: Schedule{}},
		{name: "valid", sched: Schedule{
			Faults: []Fault{
				{Kind: WorkerCrash, At: 10, Worker: -1, Replace: true},
				{Kind: StagingFailure, At: 5, Duration: 60, Prob: 1},
				{Kind: FSSlow, Duration: 30, Delay: 0.05},
			},
			ChurnMTBF: 120, ChurnReplace: true,
		}},
		{name: "unknown-kind", sched: Schedule{Faults: []Fault{{Kind: "meteor"}}},
			wantErr: `unknown kind "meteor"`},
		{name: "negative-at", sched: Schedule{Faults: []Fault{{Kind: WorkerCrash, At: -1}}},
			wantErr: "negative time"},
		{name: "negative-duration", sched: Schedule{Faults: []Fault{{Kind: FSOutage, Duration: -5}}},
			wantErr: "negative duration"},
		{name: "prob-below-zero", sched: Schedule{Faults: []Fault{{Kind: StagingFailure, Prob: -0.1}}},
			wantErr: "outside [0,1]"},
		{name: "prob-above-one", sched: Schedule{Faults: []Fault{{Kind: StagingFailure, Prob: 1.5}}},
			wantErr: "outside [0,1]"},
		{name: "negative-churn", sched: Schedule{ChurnMTBF: -60},
			wantErr: "negative churn MTBF"},
		{name: "names-offending-index", sched: Schedule{Faults: []Fault{
			{Kind: WorkerCrash}, {Kind: WorkerSlow, At: -3},
		}}, wantErr: "fault 1 (worker-slow)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.sched.Validate()
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("Validate() = nil, want error containing %q", c.wantErr)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("Validate() = %q, want it to contain %q", err, c.wantErr)
			}
		})
	}
}

// Every canned profile must build a non-empty schedule that validates,
// whatever horizon it is stretched over (0 selects the default horizon).
func TestProfilesValidateAtEveryHorizon(t *testing.T) {
	names := Profiles()
	if len(names) == 0 || !sort.StringsAreSorted(names) {
		t.Fatalf("Profiles() = %v, want a non-empty sorted list", names)
	}
	for _, name := range names {
		for _, h := range []sim.Time{0, 1, sim.Minute, 10 * sim.Minute, 6 * sim.Hour} {
			s, err := Profile(name, h)
			if err != nil {
				t.Fatalf("Profile(%q, %v): %v", name, h, err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("Profile(%q, %v) does not validate: %v", name, h, err)
			}
			if len(s.Faults) == 0 && s.ChurnMTBF <= 0 {
				t.Errorf("Profile(%q, %v) injects nothing", name, h)
			}
		}
	}
}

func TestUnknownProfile(t *testing.T) {
	s, err := Profile("no-such-profile", sim.Minute)
	if err == nil {
		t.Fatalf("unknown profile returned schedule %+v", s)
	}
	if !strings.Contains(err.Error(), `"no-such-profile"`) {
		t.Fatalf("error %q does not name the profile", err)
	}
}

func TestReportSummary(t *testing.T) {
	if got, want := (&Report{}).Summary(), "chaos: no faults injected"; got != want {
		t.Fatalf("empty report: %q, want %q", got, want)
	}
	r := &Report{Injected: map[FaultKind]int{
		ZombieKill: 1, FSSlow: 2, WorkerCrash: 3, StagingFailure: 4,
	}}
	want := "chaos: fs-slow x2 staging-failure x4 worker-crash x3 zombie-kill x1"
	if got := r.Summary(); got != want {
		t.Fatalf("Summary() = %q, want %q", got, want)
	}
	r.Violations = []string{"task 3 never terminated", "worker 2 leaked cores"}
	if got := r.Summary(); got != want+" — 2 INVARIANT VIOLATIONS" {
		t.Fatalf("Summary() with violations = %q", got)
	}
}
