// Package gen writes seeded synthetic CLOG-2 logs that every stage of the
// toolchain accepts: the converter, the profiler, the index builder, the
// analyzer and the diff. The benchmark's post-run workloads are built on
// it, so the log has the shape of a healthy Pilot run and its drawable
// counts are known exactly before a single tool has looked at it.
//
// A log is a sequence of rounds. In each round every rank opens a Compute
// state; inside it the round's messages are written (PI_Write state around
// a send half) during the first half of the round and read (PI_Read state
// around the receive half and a MsgArrival solo event) during the second,
// so every receive follows its send, per-channel order is FIFO, and
// states nest as Compute ⊃ PI_Write/PI_Read. Each rank also drops one
// Mark solo event per round. Channels have a fixed (src, dst) pair and a
// unique tag; how often each is used is skewed, and which ranks the busy
// ones join is drawn from the seed.
package gen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"

	"repro/internal/clog2"
)

// State and event ids, with the etypes the converter expects: state s uses
// 2s and 2s+1, solo events live above 1<<20.
const (
	stateCompute = 1
	stateWrite   = 2
	stateRead    = 3

	soloBase     = 1 << 20
	eventArrival = soloBase + 1
	eventMark    = soloBase + 2
)

// The shape of every generated log.
const (
	roundSeconds = 1e-3 // simulated duration of one round
	ranks        = 8
	channels     = 24   // (src, dst, tag) channels; at most ranks*(ranks-1)
	msgsPerRound = 32   // messages sent per round over all channels
	blockRecords = 2048 // records per rank block
)

// Config sizes one generated log.
type Config struct {
	Seed int64
	// Rounds is the number of compute rounds, at least 1; it sets the
	// log's size.
	Rounds int
}

// Counts is what a generated log contains, known by construction.
type Counts struct {
	Bytes   int64
	Records int64 // timed records plus definitions
	// Ops is the number of timed records (events, state halves, message
	// halves): the length of the diff's op sequences summed over ranks.
	Ops    int64
	States int
	Arrows int
	Events int
	// Start and End bound the timed records.
	Start, End float64
}

// Divergence locates the one op a planted log differs in.
type Divergence struct {
	Rank int
	// Op indexes the rank's sequence of timed records, as the diff does.
	Op int
}

// ForSize returns the configuration whose log is about size bytes long.
func ForSize(seed, size int64) Config {
	one, _, _ := write(io.Discard, Config{Seed: seed, Rounds: 1}, false)
	two, _, _ := write(io.Discard, Config{Seed: seed, Rounds: 2}, false)
	perRound := two.Bytes - one.Bytes
	return Config{Seed: seed, Rounds: max(int(size/perRound), 1)}
}

// WriteFile generates the log for cfg at path.
func WriteFile(path string, cfg Config) (Counts, error) {
	c, _, err := writeFile(path, cfg, false)
	return c, err
}

// WritePlantedFile generates the same log as WriteFile with one divergence:
// the size of one send half, in the middle round, is one byte larger. Only
// the sending rank's op sequence changes, at exactly the returned op.
func WritePlantedFile(path string, cfg Config) (Counts, Divergence, error) {
	return writeFile(path, cfg, true)
}

func writeFile(path string, cfg Config, plant bool) (Counts, Divergence, error) {
	f, err := os.Create(path)
	if err != nil {
		return Counts{}, Divergence{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	c, d, err := write(bw, cfg, plant)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return c, d, err
}

type channel struct {
	src, dst int32
	tag      int32
}

// generator holds the per-rank block buffers and clocks of one run.
type generator struct {
	w      *clog2.Writer
	rng    *rand.Rand
	bufs   [][]clog2.Record
	cursor []float64 // each rank's next record time
	step   float64   // mean gap between two records of a rank
	ops    []int     // timed records emitted so far, per rank
	counts Counts
}

func (g *generator) emit(rank int32, rec clog2.Record) error {
	g.cursor[rank] += g.step * (0.5 + 0.5*g.rng.Float64())
	rec.Rank = rank
	rec.Time = g.cursor[rank]
	if g.counts.Ops == 0 || rec.Time < g.counts.Start {
		g.counts.Start = rec.Time
	}
	if rec.Time > g.counts.End {
		g.counts.End = rec.Time
	}
	g.bufs[rank] = append(g.bufs[rank], rec)
	g.ops[rank]++
	g.counts.Ops++
	if len(g.bufs[rank]) >= blockRecords {
		return g.flush(rank)
	}
	return nil
}

func (g *generator) flush(rank int32) error {
	if len(g.bufs[rank]) == 0 {
		return nil
	}
	err := g.w.WriteBlock(rank, g.bufs[rank])
	g.counts.Records += int64(len(g.bufs[rank]))
	g.bufs[rank] = g.bufs[rank][:0]
	return err
}

func cargoEvt(etype int32, cargo string) clog2.Record {
	r := clog2.Record{Type: clog2.RecCargoEvt, ID: etype}
	r.SetCargo(cargo)
	return r
}

func bareEvt(etype int32) clog2.Record {
	return clog2.Record{Type: clog2.RecBareEvt, ID: etype}
}

func write(out io.Writer, cfg Config, plant bool) (Counts, Divergence, error) {
	if cfg.Rounds < 1 {
		return Counts{}, Divergence{}, fmt.Errorf("gen: need at least 1 round, have %d", cfg.Rounds)
	}
	cw := &countingWriter{w: out}
	w, err := clog2.NewWriter(cw, ranks)
	if err != nil {
		return Counts{}, Divergence{}, err
	}
	g := &generator{
		w:      w,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		bufs:   make([][]clog2.Record, ranks),
		cursor: make([]float64, ranks),
		ops:    make([]int, ranks),
		// A rank logs at most 3 records per message in the write half of
		// a round and 4 in the read half; each half gets 45% of the round.
		step: 0.45 * roundSeconds / float64(4*msgsPerRound+2),
	}

	defs := []clog2.Record{
		{Type: clog2.RecStateDef, ID: stateCompute, Aux1: 2 * stateCompute, Aux2: 2*stateCompute + 1, Color: "gray", Name: "Compute"},
		{Type: clog2.RecStateDef, ID: stateWrite, Aux1: 2 * stateWrite, Aux2: 2*stateWrite + 1, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecStateDef, ID: stateRead, Aux1: 2 * stateRead, Aux2: 2*stateRead + 1, Color: "red", Name: "PI_Read"},
		{Type: clog2.RecEventDef, ID: eventArrival, Color: "yellow", Name: "MsgArrival"},
		{Type: clog2.RecEventDef, ID: eventMark, Color: "yellow", Name: "Mark"},
	}
	if err := w.WriteBlock(0, defs); err != nil {
		return Counts{}, Divergence{}, err
	}
	g.counts.Records += int64(len(defs))

	// Channel i is the i-th most used, with weight 1/(1+i)^skew. Which
	// ranks the hot channels join comes from the seed, as a relabelling of
	// the ranks of one fixed topology (channel i leaves rank i mod n for
	// the rank 1 + i/n further on), so that logs of different seeds load
	// their ranks alike and cost the tools the same work.
	const skew = 0.8
	label := g.rng.Perm(ranks)
	chans := make([]channel, channels)
	cum := make([]float64, channels)
	total := 0.0
	for i := range chans {
		src := i % ranks
		dst := (src + 1 + i/ranks) % ranks
		chans[i] = channel{src: int32(label[src]), dst: int32(label[dst]), tag: int32(i + 1)}
		total += 1 / math.Pow(float64(1+i), skew)
		cum[i] = total
	}

	var planted Divergence
	msgs := make([]channel, msgsPerRound)
	sizes := make([]int32, msgsPerRound)
	for round := 0; round < cfg.Rounds; round++ {
		t0 := float64(round) * roundSeconds
		for r := range g.cursor {
			g.cursor[r] = t0
		}
		for r := 0; r < ranks; r++ {
			if err := g.emit(int32(r), cargoEvt(2*stateCompute, fmt.Sprintf("round: %d", round))); err != nil {
				return Counts{}, Divergence{}, err
			}
		}
		for i := range msgs {
			ch := chans[sort.SearchFloat64s(cum, g.rng.Float64()*total)]
			msgs[i] = ch
			sizes[i] = int32(8 + 8*g.rng.Intn(64))
			sent := sizes[i]
			if plant && round == cfg.Rounds/2 && i == 0 {
				// The send half is the op after the PI_Write start.
				planted = Divergence{Rank: int(ch.src), Op: g.ops[ch.src] + 1}
				sent++
			}
			for _, rec := range []clog2.Record{
				cargoEvt(2*stateWrite, fmt.Sprintf("line: gen.go:%d", 100+ch.tag)),
				{Type: clog2.RecMsgEvt, Dir: clog2.DirSend, Aux1: ch.dst, Aux2: ch.tag, Aux3: sent},
				bareEvt(2*stateWrite + 1),
			} {
				if err := g.emit(ch.src, rec); err != nil {
					return Counts{}, Divergence{}, err
				}
			}
		}
		for r := range g.cursor {
			g.cursor[r] = t0 + 0.5*roundSeconds
		}
		for i, ch := range msgs {
			for _, rec := range []clog2.Record{
				cargoEvt(2*stateRead, fmt.Sprintf("line: gen.go:%d", 200+ch.tag)),
				{Type: clog2.RecMsgEvt, Dir: clog2.DirRecv, Aux1: ch.src, Aux2: ch.tag, Aux3: sizes[i]},
				cargoEvt(eventArrival, fmt.Sprintf("chan: C%d", ch.tag)),
				bareEvt(2*stateRead + 1),
			} {
				if err := g.emit(ch.dst, rec); err != nil {
					return Counts{}, Divergence{}, err
				}
			}
		}
		for r := range g.cursor {
			g.cursor[r] = t0 + 0.96*roundSeconds
		}
		for r := 0; r < ranks; r++ {
			if err := g.emit(int32(r), bareEvt(2*stateCompute+1)); err != nil {
				return Counts{}, Divergence{}, err
			}
			if err := g.emit(int32(r), bareEvt(eventMark)); err != nil {
				return Counts{}, Divergence{}, err
			}
		}
	}
	for r := 0; r < ranks; r++ {
		if err := g.flush(int32(r)); err != nil {
			return Counts{}, Divergence{}, err
		}
	}
	if err := w.Close(); err != nil {
		return Counts{}, Divergence{}, err
	}

	nmsgs := cfg.Rounds * msgsPerRound
	g.counts.Bytes = cw.n
	g.counts.States = cfg.Rounds*ranks + 2*nmsgs
	g.counts.Arrows = nmsgs
	g.counts.Events = cfg.Rounds*ranks + nmsgs
	return g.counts, planted, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
