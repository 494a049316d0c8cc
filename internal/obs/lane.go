package obs

import "repro/internal/host"

// This file takes line rendering off the simulation's goroutine. A sink that
// writes a log (JSONLSink, SeriesSink) copies each value it is handed into a
// batch, and renders and writes whole batches beside the caller on a
// host.Serial, double-buffered: the producer fills one batch while the other
// renders. At a full batch the producer joins the render in flight before it
// starts the next, so batches render one at a time and in the order they
// were filled. What a render touches — the sink's jsonl.Writer, FloatCache
// and line buffer, and the folds it feeds — is therefore used by one
// goroutine at a time, and the bytes are the ones a render on the producer
// would write.

// batchWork is the work of rendering a full batch, in host elements. A batch
// renders for tens to hundreds of microseconds, longer than host.Grain
// elements of folding take, so it renders beside the caller whenever there is
// a second core.
const batchWork = host.Grain

// lane renders a sink's batches of type B beside the producer. It needs init
// before use.
type lane[B any] struct {
	batch  [2]B
	fill   int // the batch the producer fills
	serial host.Serial
	// render[i] renders batch i and empties it. Made once by init, so a
	// hand-off allocates nothing.
	render [2]func()
}

// init sets the function that renders a batch and empties it.
func (l *lane[B]) init(render func(*B)) {
	for i := range l.batch {
		b := &l.batch[i]
		l.render[i] = func() { render(b) }
	}
}

// filling returns the batch the producer fills.
func (l *lane[B]) filling() *B { return &l.batch[l.fill] }

// flip hands the filled batch over to render once the render in flight has
// returned, and moves the producer to the other batch, which that render
// emptied.
func (l *lane[B]) flip() {
	l.serial.Start(batchWork, l.render[l.fill])
	l.fill ^= 1
}

// drain joins the render in flight and renders the batch being filled on the
// caller: after it, every line handed in has been written.
func (l *lane[B]) drain() {
	l.serial.Wait()
	l.render[l.fill]()
}
