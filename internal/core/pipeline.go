package core

import (
	"fmt"
	"sync"
)

// Pipeline is the compress-and-deliver engine behind the streaming
// ingest path: a bounded worker pool runs jobs (each producing one
// CompressedWindow) concurrently, and a single sequencer goroutine
// delivers the results to the sink strictly in submission order
// regardless of which worker finishes first — overlapping the paper's
// "Comp. Time" with the solve, the way a production in-transit pipeline
// hides the Table I compute cost.
//
// Failure semantics are designed for clean drains under storage faults:
// the first error (from a job or from the sink) sticks, the sink is never
// invoked again after it, workers stop doing work (they keep consuming
// jobs so a blocked Submit always unblocks), and Close drains everything
// without leaking goroutines or deadlocking on a full job queue. Submit
// fails fast once the pipeline is failed, so producers learn about a bad
// sink at the next window boundary instead of at Flush.
//
// Submit and Close must be called from a single goroutine; the sink is
// invoked from a single (internal) goroutine.
type Pipeline struct {
	jobs     chan pipelineJob
	done     chan struct{}
	failed   chan struct{} // closed after err is set
	failOnce sync.Once
	err      error

	next   int
	closed bool
}

type pipelineJob struct {
	id  int
	run func() (*CompressedWindow, error)
}

type pipelineResult struct {
	id  int
	cw  *CompressedWindow
	err error
}

// NewPipeline starts workers (>= 1) goroutines consuming a job queue of
// the same depth, delivering in-order to sink. The sink receives the job
// id assigned by Submit alongside the window.
func NewPipeline(workers int, sink func(id int, cw *CompressedWindow) error) (*Pipeline, error) {
	if workers < 1 {
		return nil, fmt.Errorf("core: pipeline needs >= 1 worker, got %d", workers)
	}
	if sink == nil {
		return nil, fmt.Errorf("core: nil sink")
	}
	p := &Pipeline{
		jobs:   make(chan pipelineJob, workers),
		done:   make(chan struct{}),
		failed: make(chan struct{}),
	}
	results := make(chan pipelineResult, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range p.jobs {
				if p.Err() != nil {
					// The pipeline already failed: consume the job so a
					// blocked Submit or Close can make progress, but skip
					// the (expensive) work.
					results <- pipelineResult{id: job.id, err: p.Err()}
					continue
				}
				cw, err := job.run()
				results <- pipelineResult{id: job.id, cw: cw, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	// Sequencer: delivers results to the sink in id order. After the first
	// error it keeps draining results (so workers never block on a full
	// results channel) but never calls the sink again — a journal must not
	// be appended past a hole.
	go func() {
		defer close(p.done)
		next := 0
		buffered := map[int]*CompressedWindow{}
		for res := range results {
			if p.Err() != nil {
				continue
			}
			if res.err != nil {
				p.fail(res.err)
				continue
			}
			buffered[res.id] = res.cw
			for {
				cw, ok := buffered[next]
				if !ok {
					break
				}
				delete(buffered, next)
				if err := sink(next, cw); err != nil {
					p.fail(err)
					break
				}
				next++
			}
		}
	}()
	return p, nil
}

// fail records the pipeline's first error and marks it failed.
func (p *Pipeline) fail(err error) {
	p.failOnce.Do(func() {
		p.err = err
		close(p.failed)
	})
}

// Err returns the sticky first error, or nil while the pipeline is
// healthy. Safe to call from any goroutine.
func (p *Pipeline) Err() error {
	select {
	case <-p.failed:
		return p.err
	default:
		return nil
	}
}

// Submit queues one job and returns the sequence id its result will be
// delivered under. It blocks while the job queue is full (workers always
// drain it, so the wait is bounded by in-flight work, not by the sink).
// Once the pipeline has failed, Submit drops the job and returns the
// sticky error immediately.
func (p *Pipeline) Submit(run func() (*CompressedWindow, error)) (int, error) {
	if p.closed {
		return 0, fmt.Errorf("core: submit on closed pipeline")
	}
	if err := p.Err(); err != nil {
		return 0, err
	}
	id := p.next
	p.next++
	p.jobs <- pipelineJob{id: id, run: run}
	return id, nil
}

// Close stops accepting jobs, waits for every in-flight job and delivery
// to finish (workers and sequencer exit; nothing leaks), and returns the
// pipeline's sticky error. Close is idempotent.
func (p *Pipeline) Close() error {
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	<-p.done
	return p.Err()
}
