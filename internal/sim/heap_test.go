package sim

// heapQueue is a plain binary min-heap on (At, seq). It is the oracle
// the timing wheel is property-tested against and the baseline side of
// the scheduler benchmarks, reached through the queue seam of Config
// and Options; container/heap is avoided so neither queue pays
// interface boxing on the hot path.
type heapQueue struct {
	h []Message
}

func newHeapQueue(n int) eventQueue { return &heapQueue{h: make([]Message, 0, n)} }

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) push(m Message) {
	q.h = append(q.h, m)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *heapQueue) pop() (Message, bool) {
	if len(q.h) == 0 {
		return Message{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = Message{}
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q.h) && msgLess(q.h[l], q.h[min]) {
			min = l
		}
		if r < len(q.h) && msgLess(q.h[r], q.h[min]) {
			min = r
		}
		if min == i {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
	return top, true
}
