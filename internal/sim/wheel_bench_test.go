package sim

import (
	"fmt"
	"testing"
)

// BenchmarkSchedulerTimers measures the scheduling cost that dominates
// a large-population run: a standing mass of pending deadline timers —
// one per principal, far in the future, and almost never firing — with
// a churn of short-latency message events popping and re-arming on top
// of it. The heap pays O(log n) sift-up and sift-down against the full
// standing mass on every operation (and every sift step copies a
// ~100-byte Message); the wheel parks the deadlines in high-level
// buckets where they cost nothing until their window approaches, so
// the message churn runs at level-0 cost regardless of how many
// principals are waiting. This is the gap that makes 10^5–10^6
// principals feasible.
//
// The pending=0 variant isolates the churn with no standing timers —
// the two queues are comparable there, which localises the speedup to
// the standing mass rather than to per-operation constants.
func BenchmarkSchedulerTimers(b *testing.B) {
	// Message-latency-shaped delays: small, co-prime-ish spread so the
	// churn events neither collapse into one tick nor leave level 0.
	churn := []Time{1, 2, 3, 5, 8, 13, 21, 34, 55}
	// Deadlines sit deep in the wheel's span, spread over a thousand
	// ticks so the heap isn't handed a degenerate all-equal suffix.
	const deadlineBase Time = 10_000_000
	for _, pending := range []int{0, 1000, 100000} {
		for _, kind := range []struct {
			name  string
			queue func(n int) eventQueue
		}{{"wheel", newQueue}, {"heap", newHeapQueue}} {
			b.Run(fmt.Sprintf("queue=%s/pending=%d", kind.name, pending), func(b *testing.B) {
				q := kind.queue(0)
				seq := 0
				for i := 0; i < pending; i++ {
					q.push(Message{At: deadlineBase + Time(i%1000), Kind: MsgTimer, seq: seq})
					seq++
				}
				// The in-flight message population: enough to keep a
				// few ticks occupied, far fewer than the timer mass.
				for i := 0; i < 64; i++ {
					q.push(Message{At: 1 + churn[i%len(churn)], Kind: MsgTimer, seq: seq})
					seq++
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, ok := q.pop()
					if !ok {
						b.Fatal("queue drained")
					}
					if m.At >= deadlineBase {
						b.Fatal("churn reached the deadline horizon; raise deadlineBase")
					}
					q.push(Message{At: m.At + churn[i%len(churn)], Kind: MsgTimer, seq: seq})
					seq++
				}
			})
		}
	}
}
