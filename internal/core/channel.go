package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/fmtspec"
	"repro/internal/mpe"
	"repro/internal/mpi"
)

// Channel is a one-way, typed, point-to-point conduit between two Pilot
// processes (PI_CHANNEL*). Channels are created during the configuration
// phase; the process at the `to` end calls Read, the `from` end calls
// Write. Every conversion spec in a format travels as its own wire
// message, exactly like Pilot over MPI ("a single PI_Read may involve
// multiple messages").
type Channel struct {
	r        *Runtime
	id       int // wire tag; 1-based
	from, to *Process

	nameMu sync.Mutex
	name   string

	bundle *Bundle // non-nil once claimed by a bundle
}

// ID returns the channel's identifier (also its MPI tag).
func (c *Channel) ID() int { return c.id }

// From returns the writing-end process.
func (c *Channel) From() *Process { return c.from }

// To returns the reading-end process.
func (c *Channel) To() *Process { return c.to }

// Name returns the display name (default "C<id>").
func (c *Channel) Name() string {
	c.nameMu.Lock()
	defer c.nameMu.Unlock()
	return c.name
}

// SetName assigns a meaningful display name (PI_SetName on a channel).
func (c *Channel) SetName(name string) {
	c.nameMu.Lock()
	c.name = name
	c.nameMu.Unlock()
}

// CreateChannel is PI_CreateChannel: a channel from `from` to `to`. Only
// legal in the configuration phase.
//
//go:noinline
func (r *Runtime) CreateChannel(from, to *Process) (*Channel, error) {
	loc := callerLoc(1)
	if err := r.requirePhase("PI_CreateChannel", loc, phaseConfig); err != nil {
		return nil, err
	}
	if from == nil || to == nil {
		return nil, errorf("PI_CreateChannel", loc, "nil process endpoint")
	}
	if from.r != r || to.r != r {
		return nil, errorf("PI_CreateChannel", loc, "process belongs to a different Pilot runtime")
	}
	if from == to {
		return nil, errorf("PI_CreateChannel", loc, "channel endpoints must differ (%s to itself)", from.Name())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Channel{r: r, id: len(r.channels) + 1, from: from, to: to}
	c.name = fmt.Sprintf("C%d", c.id)
	r.channels = append(r.channels, c)
	return c, nil
}

// parseFormat parses with a per-runtime cache; formats are tiny but parsed
// on every call otherwise.
func (r *Runtime) parseFormat(op, loc, format string) ([]fmtspec.Spec, error) {
	if v, ok := r.formatCache.Load(format); ok {
		return v.([]fmtspec.Spec), nil
	}
	specs, err := fmtspec.Parse(format)
	if err != nil {
		return nil, errorf(op, loc, "%v", err)
	}
	r.formatCache.Store(format, specs)
	return specs, nil
}

// Every Pilot wire message is one conversion's payload behind a header:
// the canonical text of its spec, behind its uint16 length. The header
// lets error-check level 2 verify "that reader and writer format strings
// match" without a separate exchange.

// appendFrameHead appends a message's header for spec to dst.
func appendFrameHead(dst []byte, spec fmtspec.Spec) []byte {
	start := len(dst)
	dst = spec.AppendText(append(dst, 0, 0))
	binary.LittleEndian.PutUint16(dst[start:], uint16(len(dst)-start-2))
	return dst
}

func parseFrame(b []byte) (spec, payload []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("short message frame (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, fmt.Errorf("message frame truncated")
	}
	return b[2 : 2+n], b[2+n:], nil
}

// frames is one call's messages, back to back in one buffer: message i
// ends at ends[i].
type frames struct {
	buf  []byte
	ends []int
}

var framesPool = sync.Pool{New: func() any { return new(frames) }}

// encodeFrames encodes every conversion of format from args straight into
// its message, before anything is sent: a call whose arguments do not fit
// its format fails having transmitted nothing, at every check level. The
// caller frees the frames once the messages are sent.
func encodeFrames(format string, specs []fmtspec.Spec, args []any) (*frames, error) {
	f := framesPool.Get().(*frames)
	f.buf, f.ends = f.buf[:0], f.ends[:0]
	i := 0
	for _, spec := range specs {
		buf, n, err := fmtspec.AppendEncode(appendFrameHead(f.buf, spec), spec, args[i:])
		if err != nil {
			f.free()
			return nil, err
		}
		f.buf, i = buf, i+n
		f.ends = append(f.ends, len(f.buf))
	}
	if i != len(args) {
		f.free()
		return nil, fmt.Errorf("format %q consumed %d arguments, %d supplied", format, i, len(args))
	}
	return f, nil
}

// msg returns message i.
func (f *frames) msg(i int) []byte {
	start := 0
	if i > 0 {
		start = f.ends[i-1]
	}
	return f.buf[start:f.ends[i]]
}

// free returns f to the pool, unless a large call grew its buffer past
// what a pooled buffer should pin.
func (f *frames) free() {
	if cap(f.buf) <= 64<<10 {
		framesPool.Put(f)
	}
}

// Write is PI_Write: encode each conversion of format from args and send
// it down the channel. Writing has "an interprocess synchronization effect
// — signalling to wake up a waiting reader — as well as a communication
// effect"; large payloads additionally rendezvous with the reader.
//
//go:noinline
func (c *Channel) Write(format string, args ...any) error {
	return c.write("PI_Write", callerLoc(1), format, args)
}

func (c *Channel) write(op, loc, format string, args []any) error {
	r := c.r
	if err := r.requirePhase(op, loc, phaseRunning); err != nil {
		return err
	}
	specs, err := r.parseFormat(op, loc, format)
	if err != nil {
		return err
	}
	f, err := encodeFrames(format, specs, args)
	if err != nil {
		return errorf(op, loc, "%v", err)
	}
	defer f.free()
	log := r.logger(c.from.rank)
	if log.Enabled() {
		var cb mpe.Cargo
		log.StateStartBytes(r.stWrite, cb.KV("line", loc).
			KV("proc", c.from.Name()).Str(" idx: ").Int(c.from.index).Bytes())
		defer log.StateEnd(r.stWrite, "")
	}
	if r.nativeOn() {
		r.nativeLog(c.from.rank, fmt.Sprintf("%s %s chan %s fmt %q %s",
			c.from.Name(), op, c.Name(), format, loc))
	}
	for i, spec := range specs {
		if err := c.sendOne(op, loc, spec, f.msg(i), log.Enabled()); err != nil {
			return err
		}
	}
	return nil
}

// sendOne ships one conversion's message, with deadlock-detector
// notifications around the potentially blocking send and the MPE message
// record and output-side bubble ("the data length and the value of the
// first element are also shown").
func (c *Channel) sendOne(op, loc string, spec fmtspec.Spec, msg []byte, logOn bool) error {
	r := c.r
	log := r.logger(c.from.rank)
	if logOn {
		_, payload, _ := parseFrame(msg)
		var db [fmtspec.DescribeMax]byte
		var cb mpe.Cargo
		log.LogSendEvent(c.to.rank, c.id, len(msg), r.evDeparture, cb.KV("chan", c.Name()).
			Str(" ").Raw(fmtspec.AppendDescribe(db[:0], spec, payload)).Bytes())
	}
	r.svcWait(c.from.rank, op, []int{c.to.rank}, false, loc)
	// Send keeps what it is given, and msg lies in a buffer the caller
	// reuses: the transport gets an exact-size copy.
	err := r.world.Rank(c.from.rank).Send(c.to.rank, c.id, bytes.Clone(msg))
	r.svcDone(c.from.rank)
	if err != nil {
		return errorf(op, loc, "send on %s: %v", c.Name(), err)
	}
	return nil
}

// Read is PI_Read: block until each conversion's message arrives and
// decode it into args. "Reading always blocks in Pilot"; the arrival of
// each wire message drops a bubble into the visual log marking the moment
// the message arrived, with the channel name in its popup.
//
//go:noinline
func (c *Channel) Read(format string, args ...any) error {
	return c.read("PI_Read", callerLoc(1), format, args)
}

func (c *Channel) read(op, loc, format string, args []any) error {
	r := c.r
	if err := r.requirePhase(op, loc, phaseRunning); err != nil {
		return err
	}
	specs, err := r.parseFormat(op, loc, format)
	if err != nil {
		return err
	}
	if r.cfg.CheckLevel >= 3 {
		if err := validateReadArgs(specs, args); err != nil {
			return errorf(op, loc, "%v", err)
		}
	}
	log := r.logger(c.to.rank)
	if log.Enabled() {
		var cb mpe.Cargo
		log.StateStartBytes(r.stRead, cb.KV("line", loc).
			KV("proc", c.to.Name()).Str(" idx: ").Int(c.to.index).Bytes())
		defer log.StateEnd(r.stRead, "")
	}
	if r.nativeOn() {
		r.nativeLog(c.to.rank, fmt.Sprintf("%s %s chan %s fmt %q %s",
			c.to.Name(), op, c.Name(), format, loc))
	}

	i := 0
	for si, spec := range specs {
		payload, err := c.recvPayload(op, loc, spec, " msg: ", si+1, len(specs))
		if err != nil {
			return err
		}
		consumed, err := fmtspec.Decode(spec, payload, args[i:])
		if err != nil {
			return errorf(op, loc, "on %s: %v", c.Name(), err)
		}
		i += consumed
	}
	if i != len(args) {
		return errorf(op, loc, "format %q consumed %d arguments, %d supplied", format, i, len(args))
	}
	return nil
}

// recvPayload is one logged receive: it takes the next wire message,
// logs its arrival with a bubble whose popup reads "chan: <name><label>k/n",
// checks its wire format against spec at check level 2, and returns the
// payload.
func (c *Channel) recvPayload(op, loc string, spec fmtspec.Spec, label string, k, n int) ([]byte, error) {
	r := c.r
	m, err := c.recvOne(op, loc)
	if err != nil {
		return nil, err
	}
	wireFmt, payload, err := parseFrame(m.Data)
	if err != nil {
		return nil, errorf(op, loc, "on %s: %v", c.Name(), err)
	}
	if log := r.logger(c.to.rank); log.Enabled() {
		var cb mpe.Cargo
		log.LogRecvEvent(c.from.rank, c.id, len(m.Data), r.evArrival, cb.KV("chan", c.Name()).
			Str(label).Int(k).Str("/").Int(n).Bytes())
	}
	if r.cfg.CheckLevel >= 2 {
		if err := checkWireFormat(wireFmt, spec); err != nil {
			return nil, errorf(op, loc, "on %s: %v", c.Name(), err)
		}
	}
	return payload, nil
}

// recvOne receives one wire message, announcing the wait to the deadlock
// detector only when no data is already queued (so buffered traffic from
// an exited writer never looks like a deadlock).
func (c *Channel) recvOne(op, loc string) (mpi.Message, error) {
	r := c.r
	rank := r.world.Rank(c.to.rank)
	if r.detectorOn() {
		if _, ok, _ := rank.Iprobe(c.from.rank, c.id); !ok {
			r.svcWait(c.to.rank, op, []int{c.from.rank}, false, loc)
			m, err := rank.Recv(c.from.rank, c.id)
			r.svcDone(c.to.rank)
			if err != nil {
				return m, errorf(op, loc, "receive on %s: %v", c.Name(), err)
			}
			return m, nil
		}
	}
	m, err := rank.Recv(c.from.rank, c.id)
	if err != nil {
		return m, errorf(op, loc, "receive on %s: %v", c.Name(), err)
	}
	return m, nil
}

// checkWireFormat implements error-check level 2: the reader's spec must
// be compatible with what the writer actually sent. A wire spec spelled as
// the reader's is; any other is parsed and compared.
func checkWireFormat(wire []byte, reader fmtspec.Spec) error {
	var text [24]byte
	if string(wire) == string(reader.AppendText(text[:0])) {
		return nil
	}
	wspecs, err := fmtspec.Parse(string(wire))
	if err != nil {
		return fmt.Errorf("undecodable wire format %q: %v", wire, err)
	}
	return fmtspec.Compatible(wspecs, []fmtspec.Spec{reader})
}

// HasData is PI_ChannelHasData: a non-blocking check whether a Read would
// find at least one message waiting. Logged as a bubble with the result in
// the popup.
//
//go:noinline
func (c *Channel) HasData() (bool, error) {
	loc := callerLoc(1)
	r := c.r
	if err := r.requirePhase("PI_ChannelHasData", loc, phaseRunning); err != nil {
		return false, err
	}
	_, ok, err := r.world.Rank(c.to.rank).Iprobe(c.from.rank, c.id)
	if err != nil {
		return false, errorf("PI_ChannelHasData", loc, "%v", err)
	}
	if log := r.logger(c.to.rank); log.Enabled() {
		var cb mpe.Cargo
		log.EventBytes(r.events["PI_ChannelHasData"], cb.KV("chan", c.Name()).
			Str(" has: ").Bool(ok).KV("line", loc).Bytes())
	}
	if r.nativeOn() {
		r.nativeLog(c.to.rank, fmt.Sprintf("%s PI_ChannelHasData chan %s -> %v %s",
			c.to.Name(), c.Name(), ok, loc))
	}
	return ok, nil
}

// validateReadArgs is error-check level 3 for the read side: every
// destination present and of the type its conversion decodes into (the
// check Decode makes), verified before any message is received so a bad
// call consumes nothing.
func validateReadArgs(specs []fmtspec.Spec, args []any) error {
	i := 0
	for _, spec := range specs {
		n, err := fmtspec.CheckRead(spec, args[i:])
		if err != nil {
			return err
		}
		i += n
	}
	if i != len(args) {
		return fmt.Errorf("format consumed %d arguments, %d supplied", i, len(args))
	}
	return nil
}

// arrowSpread sleeps between collective fan-out arrows — the paper's 1 ms
// usleep workaround for superimposed drawables. Applied only when the
// visual log is being recorded, since its sole purpose is drawable
// separation.
func (r *Runtime) arrowSpread() {
	if r.jlog && r.cfg.ArrowSpread > 0 {
		time.Sleep(r.cfg.ArrowSpread)
	}
}
