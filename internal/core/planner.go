// Queue-oriented deterministic batch execution: the planner below partitions
// each drained mailbox batch's data operations into per-key FIFO queues in a
// deterministic order, and one runner goroutine per touched key drains its
// queue serially while disjoint keys proceed in parallel. The engine orders
// same-key steps itself (internal/xadb/spec.go, which also holds the
// commitment-time vote gates that make the speculation sound); the plan
// fixes which order that is, the same on every replica and every re-plan.
package core

import (
	"sort"

	"etx/internal/msg"
	"etx/internal/queue"
)

// keyPlan is one key's slice of a batch plan: the operations touching key,
// in deterministic execution order.
type keyPlan struct {
	key  string
	jobs []execJob
}

// planBatch partitions a drained batch's data operations into per-key FIFO
// queues ordered by a deterministic priority: try order (ResultID order, the
// same total order the commit path's consensus already fixes), with one
// branch's own operations kept in call order. Planning is a pure function of
// the batch's contents — the same batch plans identically on every replica
// and on every re-plan, which is what makes queue execution deterministic.
// Operations without a key (pure cost-model work) have no conflict footprint
// and are returned separately for the unordered worker pool.
func planBatch(jobs []execJob) (keyed []keyPlan, keyless []execJob) {
	byKey := make(map[string][]execJob)
	for _, j := range jobs {
		if j.m.Op.Key == "" {
			keyless = append(keyless, j)
			continue
		}
		byKey[j.m.Op.Key] = append(byKey[j.m.Op.Key], j)
	}
	keyed = make([]keyPlan, 0, len(byKey))
	for key, js := range byKey {
		sort.SliceStable(js, func(a, b int) bool { return execPriority(js[a], js[b]) })
		keyed = append(keyed, keyPlan{key: key, jobs: js})
	}
	sort.Slice(keyed, func(a, b int) bool { return keyed[a].key < keyed[b].key })
	return keyed, keyless
}

// execPriority is the deterministic queue order: ResultID order between
// tries, call order within one try.
func execPriority(a, b execJob) bool {
	if a.m.RID != b.m.RID {
		return a.m.RID.Less(b.m.RID)
	}
	return a.m.CallID < b.m.CallID
}

// keyRun is one key's run queue: operations arrive in plan order and a
// single runner goroutine drains them, so same-key operations never overlap.
type keyRun struct {
	q    *queue.Queue[execJob]
	busy bool // a runner goroutine is draining; DataServer.runMu serializes access
}

// runPlanned plans one drained batch's operations and hands each per-key
// queue to its key's runner, starting one for keys that are idle. Keyless
// operations go to the unordered worker pool.
func (d *DataServer) runPlanned(jobs []execJob) {
	if len(jobs) == 0 {
		return
	}
	keyed, keyless := planBatch(jobs)
	d.plannedBatches.Inc()
	d.plannedOps.Add(uint64(len(jobs) - len(keyless)))
	for _, j := range keyless {
		d.execQ.Push(j)
	}
	d.runMu.Lock()
	defer d.runMu.Unlock()
	for _, p := range keyed {
		kr := d.runs[p.key]
		if kr == nil {
			kr = &keyRun{q: queue.New[execJob]()}
			d.runs[p.key] = kr
		}
		for _, j := range p.jobs {
			kr.q.Push(j)
		}
		if !kr.busy {
			kr.busy = true
			d.wg.Add(1)
			go d.runKey(p.key, kr)
		}
	}
}

// runKey drains one key's run queue serially, retiring the queue when it
// empties; a later batch touching the key starts a fresh runner. Pushes
// happen under runMu, so the empty re-check under runMu cannot lose a job
// that raced with the final Pop.
func (d *DataServer) runKey(key string, kr *keyRun) {
	defer d.wg.Done()
	//etxlint:allow golifecycle — self-retiring runner: drains its key queue and deletes itself when empty; Exec never waits on another branch, so a cancelled server drains fast and Stop's wg.Wait outlasts it
	for {
		job, ok := kr.q.Pop()
		if !ok {
			d.runMu.Lock()
			if kr.q.Len() == 0 {
				kr.busy = false
				delete(d.runs, key)
				d.runMu.Unlock()
				return
			}
			d.runMu.Unlock()
			continue
		}
		rep := d.cfg.Engine.Exec(d.ctx, job.m.RID, job.m.Op)
		d.reply(job.from, msg.ExecReply{RID: job.m.RID, CallID: job.m.CallID, Rep: rep, Inc: d.cfg.Engine.Incarnation()})
	}
}
