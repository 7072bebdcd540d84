// Package edge implements the task lifecycle of edge devices and edge
// servers on top of the simulated network (Figure 1, steps 3–6):
//
//  1. The device queries the scheduler for ranked candidate servers.
//  2. Serverless jobs submit their single task to the top candidate;
//     distributed jobs submit one task to each of the top three.
//  3. The task's input data is transferred to the server over a reliable
//     (TCP-like) flow.
//  4. The server executes the task for its execution time and returns a
//     small completion message.
//
// Every host plays both roles, matching the paper's setup where all nodes
// (scheduler included) submit tasks as devices and execute tasks as servers.
package edge

import (
	"time"

	"intsched/internal/core"
	"intsched/internal/netsim"
	"intsched/internal/transport"
	"intsched/internal/workload"
)

// taskStart is the control message a device sends to a server once the
// task's input data has been fully transferred.
type taskStart struct {
	TaskID   uint64
	ExecTime time.Duration
}

// taskDone is the server's completion notification back to the device.
type taskDone struct {
	TaskID uint64
}

// controlMsgSize is the wire size of task lifecycle control messages.
const controlMsgSize = 64

// TaskResult records one task's measured timeline.
type TaskResult struct {
	JobID  uint64
	TaskID uint64
	Class  workload.Class
	Kind   workload.Kind
	Device netsim.NodeID
	Server netsim.NodeID

	DataBytes int64
	ExecTime  time.Duration

	// SubmitAt is when the device submitted the job (query sent).
	SubmitAt time.Duration
	// RankedAt is when the scheduler's response arrived.
	RankedAt time.Duration
	// TransferDoneAt is when the final data byte was acknowledged.
	TransferDoneAt time.Duration
	// CompletedAt is when the server's completion message arrived back.
	CompletedAt time.Duration

	// Retransmits counts transport retransmissions during the transfer.
	Retransmits int
}

// TransferTime is the data transfer duration (ranking response to last
// acknowledged byte).
func (r TaskResult) TransferTime() time.Duration { return r.TransferDoneAt - r.RankedAt }

// CompletionTime is the end-to-end task time (submission to completion
// notification).
func (r TaskResult) CompletionTime() time.Duration { return r.CompletedAt - r.SubmitAt }

// Node is one host acting as both edge device and edge server.
type Node struct {
	stack  *transport.Stack
	client *core.Client

	// Slots bounds concurrent executions on this server (0 = unlimited,
	// the default: the paper's evaluation isolates network effects).
	Slots int

	// OnResult, when set, receives every completed task's result.
	OnResult func(TaskResult)

	// OnDecision, when set, receives every task's placement the moment the
	// server is chosen — before the transfer starts, so fault experiments
	// can classify the decision against the network state at decision time
	// (a task sent toward a failed link is mis-scheduled even if the link
	// recovers before the transfer finishes).
	OnDecision func(TaskResult)

	// Selector, when set, enables the paper's second query option: the
	// scheduler returns the full candidate list (with bandwidth and
	// latency estimates, unsorted), and this device-side policy picks the
	// server for each task.
	Selector func(candidates []core.Candidate, task workload.Task) netsim.NodeID

	// Device-side state.
	pending    map[uint64]*TaskResult // keyed by TaskID, awaiting completion
	jobWaiters []*jobWaiter
	fallback   func(from netsim.NodeID, payload any)

	// Server-side state.
	backlog   time.Duration
	running   int
	execQ     []taskStart
	execQFrom []netsim.NodeID
	Executed  uint64

	// Results accumulates completed tasks submitted by this device.
	Results []TaskResult
}

// NewNode wires an edge node onto a host stack with a query client pointing
// at the scheduler. It chains into whatever control handling is already
// installed on the stack (e.g. the scheduler service on the scheduler host).
func NewNode(stack *transport.Stack, scheduler netsim.NodeID) *Node {
	n := &Node{
		stack:   stack,
		pending: make(map[uint64]*TaskResult),
	}
	n.client = core.NewClient(stack, scheduler)
	n.fallback = n.client.Demux // preserve any pre-existing control chain
	n.client.Demux = n.handleControl
	return n
}

// Client exposes the node's scheduler query client.
func (n *Node) Client() *core.Client { return n.client }

// Host returns the node's host ID.
func (n *Node) Host() netsim.NodeID { return n.stack.Host() }

// Backlog returns the server-side pending execution time.
func (n *Node) Backlog() time.Duration { return n.backlog }

func (n *Node) now() time.Duration { return n.stack.Engine().Now() }

// handleControl processes task lifecycle messages for both roles.
func (n *Node) handleControl(from netsim.NodeID, payload any) {
	switch msg := payload.(type) {
	case *taskStart:
		n.serverStart(from, *msg)
	case *taskDone:
		n.deviceComplete(msg.TaskID)
	default:
		if n.fallback != nil {
			n.fallback(from, payload)
		}
	}
}

// SubmitJob runs the full lifecycle for a job using the given ranking
// metric. onDone (may be nil) fires when every task of the job completes.
func (n *Node) SubmitJob(job workload.Job, metric core.Metric, onDone func()) {
	submitAt := n.now()
	// Pass the job's largest task size so size-aware rankers (the
	// transfer-time extension) can estimate full transfer completion.
	var maxData int64
	for _, task := range job.Tasks {
		if task.DataBytes > maxData {
			maxData = task.DataBytes
		}
	}
	handle := func(resp *core.QueryResponse) {
		rankedAt := n.now()
		for i, task := range job.Tasks {
			res := &TaskResult{
				JobID:     job.ID,
				TaskID:    task.ID,
				Class:     task.Class,
				Kind:      job.Kind,
				Device:    n.Host(),
				DataBytes: task.DataBytes,
				ExecTime:  task.ExecTime,
				SubmitAt:  submitAt,
				RankedAt:  rankedAt,
			}
			if len(resp.Candidates) == 0 {
				// No candidates (collector not warmed up): count the task
				// as failed-fast; the experiment harness warms the
				// collector so this should not happen in practice.
				continue
			}
			if n.Selector != nil {
				// Paper option two: custom device-side selection over the
				// unsorted estimate list.
				res.Server = n.Selector(resp.Candidates, task)
			} else {
				// Option one: task i goes to the i-th ranked server
				// (distributed jobs spread over the top three).
				res.Server = resp.Candidates[i%len(resp.Candidates)].Node
			}
			if n.OnDecision != nil {
				n.OnDecision(*res)
			}
			n.pending[task.ID] = res
			n.startTransfer(res, task)
		}
	}
	if n.Selector != nil {
		n.client.QueryUnsorted(metric, maxData, handle)
	} else {
		n.client.QuerySized(metric, 0, maxData, handle)
	}
	if onDone != nil {
		// Completion tracking via OnResult wrapper would complicate the
		// common path; poll instead through deviceComplete bookkeeping.
		n.jobWaiters = append(n.jobWaiters, &jobWaiter{jobID: job.ID, remaining: len(job.Tasks), done: onDone})
	}
}

type jobWaiter struct {
	jobID     uint64
	remaining int
	done      func()
}

// jobWaiters tracks in-flight jobs with completion callbacks.
func (n *Node) startTransfer(res *TaskResult, task workload.Task) {
	n.stack.Transfer(res.Server, task.DataBytes, func(fs transport.FlowStats) {
		res.TransferDoneAt = n.now()
		res.Retransmits = fs.Retransmits
		// Tell the server to begin execution.
		n.stack.SendControl(res.Server, controlMsgSize, &taskStart{TaskID: task.ID, ExecTime: task.ExecTime})
	})
}

// serverStart enqueues or begins execution of a task on this server.
func (n *Node) serverStart(from netsim.NodeID, msg taskStart) {
	n.backlog += msg.ExecTime
	start := func(run taskStart, dev netsim.NodeID) {
		n.running++
		n.stack.Engine().After(run.ExecTime, func() {
			n.running--
			n.backlog -= run.ExecTime
			n.Executed++
			n.stack.SendControl(dev, controlMsgSize, &taskDone{TaskID: run.TaskID})
			n.drainQueue()
		})
	}
	if n.Slots > 0 && n.running >= n.Slots {
		n.execQ = append(n.execQ, msg)
		n.execQFrom = append(n.execQFrom, from)
		return
	}
	start(msg, from)
}

// execQFrom parallels execQ with the submitting device of each queued task.
func (n *Node) drainQueue() {
	if n.Slots <= 0 || len(n.execQ) == 0 || n.running >= n.Slots {
		return
	}
	msg := n.execQ[0]
	dev := n.execQFrom[0]
	n.execQ = n.execQ[1:]
	n.execQFrom = n.execQFrom[1:]
	n.running++
	n.stack.Engine().After(msg.ExecTime, func() {
		n.running--
		n.backlog -= msg.ExecTime
		n.Executed++
		n.stack.SendControl(dev, controlMsgSize, &taskDone{TaskID: msg.TaskID})
		n.drainQueue()
	})
}

// deviceComplete finalizes a task when its completion message arrives.
func (n *Node) deviceComplete(taskID uint64) {
	res := n.pending[taskID]
	if res == nil {
		return
	}
	delete(n.pending, taskID)
	res.CompletedAt = n.now()
	n.Results = append(n.Results, *res)
	if n.OnResult != nil {
		n.OnResult(*res)
	}
	for i, w := range n.jobWaiters {
		if w.jobID == res.JobID {
			w.remaining--
			if w.remaining == 0 {
				n.jobWaiters = append(n.jobWaiters[:i], n.jobWaiters[i+1:]...)
				w.done()
			}
			break
		}
	}
}
