package sim

// Server models a k-channel FIFO queueing station with a fixed per-item
// service time, such as a shared filesystem metadata server. Requests are
// served in arrival order by up to Channels parallel servers; excess requests
// wait in queue. This is the standard M/D/k shape: under light load requests
// see only their service time, and under heavy concurrent load the queue
// grows and per-request latency scales with offered load — exactly the
// behaviour MacLean et al. and the LFM paper report for metadata storms.
type Server struct {
	eng *Engine

	// Channels is the number of requests served concurrently (k).
	Channels int

	// busy is the number of channels currently serving.
	busy int
	// queue holds waiting requests in FIFO order.
	queue []serverReq

	// Busiest tracks the maximum queue depth observed, for reporting.
	Busiest int
	// Served counts completed requests.
	Served uint64
	// BusyTime integrates channel-seconds of service for utilization stats.
	BusyTime Time
}

type serverReq struct {
	service Time
	done    func()
}

// NewServer returns a server with k channels attached to the engine.
func NewServer(eng *Engine, channels int) *Server {
	if channels < 1 {
		panic("sim: server needs at least one channel")
	}
	return &Server{eng: eng, Channels: channels}
}

// QueueLen reports the number of requests waiting (not in service).
func (s *Server) QueueLen() int { return len(s.queue) }

// Request enqueues a request needing the given service time and calls done
// when it completes. Zero service time is allowed and still pays queueing
// delay behind earlier requests.
func (s *Server) Request(service Time, done func()) {
	if service < 0 {
		panic("sim: negative service time")
	}
	if s.busy < s.Channels {
		s.start(service, done)
		return
	}
	s.queue = append(s.queue, serverReq{service: service, done: done})
	if len(s.queue) > s.Busiest {
		s.Busiest = len(s.queue)
	}
}

func (s *Server) start(service Time, done func()) {
	s.busy++
	s.BusyTime += service
	s.eng.After(service, func() {
		s.busy--
		s.Served++
		if done != nil {
			done()
		}
		s.drain()
	})
}

func (s *Server) drain() {
	for s.busy < s.Channels && len(s.queue) > 0 {
		req := s.queue[0]
		// Shift rather than re-slice forever to let the backing array shrink.
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.start(req.service, req.done)
	}
}
