package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"lfm/internal/sim"
)

// Chrome trace-event export, loadable in Perfetto (https://ui.perfetto.dev)
// and chrome://tracing. The layout maps the span hierarchy onto track groups:
//
//   - pid 0 "master": one row per task, holding the master-side lifecycle
//     slices (task, dep-wait, ready-queue).
//   - pid 100+w "worker w": one row per task the worker ran, holding the
//     staging / execute / output slices and the monitor's instants, plus a
//     "pilot" row with the worker's connected lifetime.
//   - pid 1 "cluster": provisioning and shared-filesystem slices.
//
// Workflow DAG edges become async flow arrows ("s"/"f" events) from the
// dependency's task slice to the dependent's, so Perfetto draws the causal
// chain the critical-path analysis walks.

// Perfetto pid assignments.
const (
	pidMaster     = 0
	pidCluster    = 1
	pidWorkerBase = 100
)

// perfettoEvent is one Chrome trace-event object. Ts and Dur are in
// microseconds per the format.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type perfettoDoc struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

func usec(t sim.Time) float64 { return float64(t) * 1e6 }

// WritePerfetto emits the store as Chrome trace-event JSON.
func (s *Store) WritePerfetto(w io.Writer) error {
	var evs []perfettoEvent
	end := s.EndTime()

	meta := func(pid, tid int, key, name string) {
		evs = append(evs, perfettoEvent{
			Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	namedPids := map[int]bool{}
	process := func(pid int, name string) {
		if !namedPids[pid] {
			namedPids[pid] = true
			meta(pid, 0, "process_name", name)
		}
	}
	namedTids := map[[2]int]bool{}
	thread := func(pid, tid int, name string) {
		if !namedTids[[2]int{pid, tid}] {
			namedTids[[2]int{pid, tid}] = true
			meta(pid, tid, "thread_name", name)
		}
	}

	// Track placement: master-side rows are per task; worker-side rows are
	// per (worker, task). Task IDs shift by one so tid 0 stays free for the
	// worker's pilot row.
	place := func(sp Span) (pid, tid int) {
		switch sp.Kind {
		case KindTask, KindDepWait, KindReadyQueue:
			process(pidMaster, "master")
			thread(pidMaster, sp.Task+1, fmt.Sprintf("task %d", sp.Task))
			return pidMaster, sp.Task + 1
		case KindWorker:
			pid = pidWorkerBase + sp.Worker
			process(pid, fmt.Sprintf("worker %d", sp.Worker))
			thread(pid, 0, "pilot")
			return pid, 0
		case KindProvision, KindFSMeta, KindFSRead, KindFSWrite:
			process(pidCluster, "cluster")
			tid = 0
			if sp.Kind == KindProvision {
				tid = sp.Worker + 1
				thread(pidCluster, tid, fmt.Sprintf("pilot job %d", sp.Worker))
			} else {
				thread(pidCluster, 0, "sharedfs")
			}
			return pidCluster, tid
		default:
			// Attempt phases and monitor sub-spans live on the worker that
			// ran them; spans with no worker yet fall back to the master row.
			if sp.Worker >= 0 {
				pid = pidWorkerBase + sp.Worker
				process(pid, fmt.Sprintf("worker %d", sp.Worker))
				thread(pid, sp.Task+1, fmt.Sprintf("task %d", sp.Task))
				return pid, sp.Task + 1
			}
			process(pidMaster, "master")
			thread(pidMaster, sp.Task+1, fmt.Sprintf("task %d", sp.Task))
			return pidMaster, sp.Task + 1
		}
	}

	name := func(sp Span) string {
		n := string(sp.Kind)
		if sp.Detail != "" {
			n += " " + sp.Detail
		}
		if sp.Outcome != "" && sp.Outcome != OutcomeOK && sp.Outcome != OutcomeDone {
			n += " [" + sp.Outcome + "]"
		}
		return n
	}

	ix := s.index()
	taskSlice := make(map[SpanID]Span) // task span ID -> span, for flows
	for _, sp := range ix.spans {
		pid, tid := place(sp)
		args := map[string]any{"outcome": sp.Outcome}
		if sp.Task >= 0 {
			args["task"] = sp.Task
		}
		if sp.Category != "" {
			args["category"] = sp.Category
		}
		if sp.Attempt > 0 {
			args["attempt"] = sp.Attempt
		}
		if sp.Polls > 0 {
			args["polls"] = sp.Polls
		}
		if sp.Kind == KindTask {
			taskSlice[sp.ID] = sp
		}
		if sp.Start == sp.End && !sp.Open() &&
			(sp.Kind == KindProcEvent || sp.Kind == KindKill) {
			evs = append(evs, perfettoEvent{
				Name: name(sp), Cat: string(sp.Kind), Ph: "i", Scope: "t",
				Ts: usec(sp.Start), Pid: pid, Tid: tid, Args: args,
			})
			continue
		}
		dur := usec(sp.Duration(end))
		if sp.Open() {
			args["open"] = true
		}
		evs = append(evs, perfettoEvent{
			Name: name(sp), Cat: string(sp.Kind), Ph: "X",
			Ts: usec(sp.Start), Dur: &dur, Pid: pid, Tid: tid, Args: args,
		})
	}

	// DAG edges as flow arrows between task slices: start at the
	// dependency's completion, finish at the dependent's release.
	flowID := 0
	for _, l := range s.Links() {
		if l.Kind != "dep" {
			continue
		}
		from, okFrom := taskSlice[l.From]
		to, okTo := taskSlice[l.To]
		if !okFrom || !okTo {
			continue
		}
		flowID++
		fromEnd := from.Start + from.Duration(end)
		readyAt := to.Start
		for _, c := range ix.children[to.ID] {
			if c.Kind == KindDepWait {
				readyAt = c.Start + c.Duration(end)
				break
			}
		}
		evs = append(evs,
			perfettoEvent{
				Name: "dep", Cat: "dag", Ph: "s", ID: flowID,
				Ts: usec(fromEnd), Pid: pidMaster, Tid: from.Task + 1,
			},
			perfettoEvent{
				Name: "dep", Cat: "dag", Ph: "f", BP: "e", ID: flowID,
				Ts: usec(readyAt), Pid: pidMaster, Tid: to.Task + 1,
			},
		)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(perfettoDoc{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
