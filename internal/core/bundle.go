package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fmtspec"
	"repro/internal/mpe"
)

// BundleUsage declares what collective operation a bundle serves, fixed at
// creation as in PI_CreateBundle(PI_BROADCAST, ...).
type BundleUsage uint8

// Bundle usages.
const (
	UsageBroadcast BundleUsage = iota
	UsageScatter
	UsageGather
	UsageReduce
	UsageSelect
)

// String implements fmt.Stringer.
func (u BundleUsage) String() string {
	switch u {
	case UsageBroadcast:
		return "PI_BROADCAST"
	case UsageScatter:
		return "PI_SCATTER"
	case UsageGather:
		return "PI_GATHER"
	case UsageReduce:
		return "PI_REDUCE"
	case UsageSelect:
		return "PI_SELECT"
	}
	return fmt.Sprintf("BundleUsage(%d)", uint8(u))
}

// Bundle is a set of channels sharing a common endpoint, created during
// configuration to serve as the argument of a collective operation
// (PI_BUNDLE*). "A bundle with N channels will result in N arrows being
// drawn."
type Bundle struct {
	r        *Runtime
	id       int
	usage    BundleUsage
	chans    []*Channel
	endpoint *Process

	nameMu sync.Mutex
	name   string
}

// ID returns the bundle identifier.
func (b *Bundle) ID() int { return b.id }

// Usage returns the declared collective usage.
func (b *Bundle) Usage() BundleUsage { return b.usage }

// Size returns the number of channels in the bundle.
func (b *Bundle) Size() int { return len(b.chans) }

// Channel returns the i-th member channel.
func (b *Bundle) Channel(i int) *Channel { return b.chans[i] }

// Endpoint returns the common-end process that performs the collective.
func (b *Bundle) Endpoint() *Process { return b.endpoint }

// Name returns the display name (default "B<id>").
func (b *Bundle) Name() string {
	b.nameMu.Lock()
	defer b.nameMu.Unlock()
	return b.name
}

// SetName assigns a meaningful display name.
func (b *Bundle) SetName(name string) {
	b.nameMu.Lock()
	b.name = name
	b.nameMu.Unlock()
}

// CreateBundle is PI_CreateBundle: it claims the given channels for one
// collective usage. All channels must share a common endpoint on the
// correct side (the writer side for broadcast/scatter, the reader side for
// gather/reduce/select), belong to this runtime, and not already be in a
// bundle. Pilot does not support all-to-all communication.
//
//go:noinline
func (r *Runtime) CreateBundle(usage BundleUsage, chans ...*Channel) (*Bundle, error) {
	loc := callerLoc(1)
	if err := r.requirePhase("PI_CreateBundle", loc, phaseConfig); err != nil {
		return nil, err
	}
	if len(chans) == 0 {
		return nil, errorf("PI_CreateBundle", loc, "bundle needs at least one channel")
	}
	outbound := usage == UsageBroadcast || usage == UsageScatter
	var endpoint *Process
	seenOther := map[int]bool{}
	for i, c := range chans {
		if c == nil {
			return nil, errorf("PI_CreateBundle", loc, "channel %d is nil", i)
		}
		if c.r != r {
			return nil, errorf("PI_CreateBundle", loc, "channel %s belongs to a different runtime", c.Name())
		}
		end, other := c.to, c.from
		if outbound {
			end, other = c.from, c.to
		}
		if endpoint == nil {
			endpoint = end
		} else if endpoint != end {
			return nil, errorf("PI_CreateBundle", loc,
				"%s bundle needs a common %s endpoint: %s has %s, expected %s",
				usage, side(outbound), c.Name(), end.Name(), endpoint.Name())
		}
		if seenOther[other.rank] {
			return nil, errorf("PI_CreateBundle", loc, "process %s appears on two channels", other.Name())
		}
		seenOther[other.rank] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range chans {
		if c.bundle != nil {
			return nil, errorf("PI_CreateBundle", loc, "channel %s already belongs to bundle %s", c.Name(), c.bundle.Name())
		}
	}
	b := &Bundle{r: r, id: len(r.bundles) + 1, usage: usage,
		chans: append([]*Channel(nil), chans...), endpoint: endpoint}
	b.name = fmt.Sprintf("B%d", b.id)
	for _, c := range chans {
		c.bundle = b
	}
	r.bundles = append(r.bundles, b)
	return b, nil
}

func side(outbound bool) string {
	if outbound {
		return "writer"
	}
	return "reader"
}

func (b *Bundle) requireUsage(op, loc string, usages ...BundleUsage) error {
	for _, u := range usages {
		if b.usage == u {
			return nil
		}
	}
	return errorf(op, loc, "bundle %s was created for %s", b.Name(), b.usage)
}

// startCollective opens the collective's state rectangle on the endpoint
// timeline with the bundle name in the popup ("the name of the bundle
// (e.g., B4) will be shown").
func (b *Bundle) startCollective(op, loc string) func() {
	r := b.r
	log := r.logger(b.endpoint.rank)
	if log.Enabled() {
		var cb mpe.Cargo
		log.StateStartBytes(r.states[op], cb.KV("line", loc).
			KV("proc", b.endpoint.Name()).KV("bund", b.Name()).Bytes())
	}
	if r.nativeOn() {
		r.nativeLog(b.endpoint.rank, fmt.Sprintf("%s %s bundle %s %s",
			b.endpoint.Name(), op, b.Name(), loc))
	}
	return func() {
		if log.Enabled() {
			log.StateEnd(r.states[op], "")
		}
	}
}

// Broadcast is PI_Broadcast: the endpoint sends the same values down every
// channel of the bundle; each receiver obtains them with an ordinary
// PI_Read on its own channel — Pilot's pure MPMD answer to MPI_Bcast's
// "receivers call broadcast too" confusion.
//
//go:noinline
func (b *Bundle) Broadcast(format string, args ...any) error {
	op, loc := "PI_Broadcast", callerLoc(1)
	r := b.r
	if err := r.requirePhase(op, loc, phaseRunning); err != nil {
		return err
	}
	if err := b.requireUsage(op, loc, UsageBroadcast); err != nil {
		return err
	}
	specs, err := r.parseFormat(op, loc, format)
	if err != nil {
		return err
	}
	// Encode once; fan out N copies.
	f, err := encodeFrames(format, specs, args)
	if err != nil {
		return errorf(op, loc, "%v", err)
	}
	defer f.free()
	end := b.startCollective(op, loc)
	defer end()
	for _, c := range b.chans {
		// "a compromise is to artificially spread the time of each arrow
		// creation by inserting delays" — before every arrow, so arrows
		// from back-to-back collectives cannot collide either.
		r.arrowSpread()
		for i, spec := range specs {
			if err := c.sendOne(op, loc, spec, f.msg(i), r.logger(b.endpoint.rank).Enabled()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Scatter is PI_Scatter: the endpoint splits an array evenly across the
// bundle's channels; receiver i reads its portion with an ordinary Read.
// The format must be a single array conversion (%Nk or %*k) whose element
// count divides evenly by the bundle size.
//
//go:noinline
func (b *Bundle) Scatter(format string, args ...any) error {
	op, loc := "PI_Scatter", callerLoc(1)
	r := b.r
	if err := r.requirePhase(op, loc, phaseRunning); err != nil {
		return err
	}
	if err := b.requireUsage(op, loc, UsageScatter); err != nil {
		return err
	}
	spec, err := singleArraySpec(r, op, loc, format)
	if err != nil {
		return err
	}
	payload, consumed, err := fmtspec.AppendEncode(nil, spec, args)
	if err != nil {
		return errorf(op, loc, "%v", err)
	}
	if consumed != len(args) {
		return errorf(op, loc, "format %q consumed %d arguments, %d supplied", format, consumed, len(args))
	}
	es := spec.Kind.ElemSize()
	total := len(payload) / es
	n := len(b.chans)
	if total%n != 0 {
		return errorf(op, loc, "cannot scatter %d elements evenly over %d channels", total, n)
	}
	per := total / n
	wire := fmtspec.Spec{Kind: spec.Kind, Mode: fmtspec.Star}
	end := b.startCollective(op, loc)
	defer end()
	var msg []byte
	for ci, c := range b.chans {
		r.arrowSpread()
		msg = append(appendFrameHead(msg[:0], wire), payload[ci*per*es:(ci+1)*per*es]...)
		if err := c.sendOne(op, loc, wire, msg, r.logger(b.endpoint.rank).Enabled()); err != nil {
			return err
		}
	}
	return nil
}

// Gather is PI_Gather: the endpoint collects one array portion from every
// channel, in channel order, into a single destination array. Writers send
// their portions with ordinary Writes. The format must be a single array
// conversion sized for the whole result.
//
//go:noinline
func (b *Bundle) Gather(format string, args ...any) error {
	op, loc := "PI_Gather", callerLoc(1)
	r := b.r
	if err := r.requirePhase(op, loc, phaseRunning); err != nil {
		return err
	}
	if err := b.requireUsage(op, loc, UsageGather); err != nil {
		return err
	}
	spec, err := singleArraySpec(r, op, loc, format)
	if err != nil {
		return err
	}
	end := b.startCollective(op, loc)
	defer end()
	log := r.logger(b.endpoint.rank)
	var concat []byte
	for ci, c := range b.chans {
		// Spread applies to each arrow creation — receive side included:
		// draining already-queued contributions would otherwise stamp
		// several arrival bubbles into one clock tick.
		r.arrowSpread()
		m, err := c.recvOne(op, loc)
		if err != nil {
			return err
		}
		wireFmt, payload, err := parseFrame(m.Data)
		if err != nil {
			return errorf(op, loc, "on %s: %v", c.Name(), err)
		}
		if log.Enabled() {
			log.LogRecv(c.from.rank, c.id, len(m.Data))
			var cb mpe.Cargo
			log.EventBytes(r.evArrival, cb.KV("chan", c.Name()).
				Str(" part: ").Int(ci+1).Str("/").Int(len(b.chans)).Bytes())
		}
		if r.cfg.CheckLevel >= 2 {
			if err := checkWireFormat(wireFmt, fmtspec.Spec{Kind: spec.Kind, Mode: fmtspec.Star}); err != nil {
				return errorf(op, loc, "on %s: %v", c.Name(), err)
			}
		}
		concat = append(concat, payload...)
	}
	if _, err := fmtspec.Decode(spec, concat, args); err != nil {
		return errorf(op, loc, "%v", err)
	}
	return nil
}

// singleArraySpec parses format and requires exactly one Fixed or Star
// array conversion, as scatter/gather need portionable data.
func singleArraySpec(r *Runtime, op, loc, format string) (fmtspec.Spec, error) {
	specs, err := r.parseFormat(op, loc, format)
	if err != nil {
		return fmtspec.Spec{}, err
	}
	if len(specs) != 1 {
		return fmtspec.Spec{}, errorf(op, loc, "%s needs exactly one conversion, format %q has %d", op, format, len(specs))
	}
	s := specs[0]
	if s.Mode != fmtspec.Fixed && s.Mode != fmtspec.Star {
		return fmtspec.Spec{}, errorf(op, loc, "%s needs a %%N or %%* array conversion, got %s", op, s)
	}
	return s, nil
}

// Select is PI_Select: block until any channel of the bundle has data and
// return its index. "It acts like PI_Read in that it blocks ... therefore
// it should be represented as state. On the other hand, no message is
// actually received ... therefore it does not have an event bubble. Its
// information popup gives the index of the channel that is ready."
//
//go:noinline
func (b *Bundle) Select() (int, error) {
	op, loc := "PI_Select", callerLoc(1)
	r := b.r
	if err := r.requirePhase(op, loc, phaseRunning); err != nil {
		return -1, err
	}
	if err := b.requireUsage(op, loc, UsageSelect); err != nil {
		return -1, err
	}
	log := r.logger(b.endpoint.rank)
	if log.Enabled() {
		var cb mpe.Cargo
		log.StateStartBytes(r.states[op], cb.KV("line", loc).
			KV("proc", b.endpoint.Name()).KV("bund", b.Name()).Bytes())
	}
	if r.nativeOn() {
		r.nativeLog(b.endpoint.rank, fmt.Sprintf("%s PI_Select bundle %s %s",
			b.endpoint.Name(), b.Name(), loc))
	}

	mx := r.metrics
	var t0 time.Time
	if mx != nil {
		t0 = time.Now()
	}
	idx, err := b.pollReady(op, loc, true)
	if mx != nil && err == nil {
		mx.SelectObserved(b.endpoint.rank, len(b.chans), time.Since(t0).Nanoseconds())
	}
	if log.Enabled() {
		var cb mpe.Cargo
		log.StateEndBytes(r.states[op], cb.Str("ready: ").Int(idx).Bytes())
	}
	return idx, err
}

// TrySelect is PI_TrySelect: a single non-blocking sweep, returning the
// ready channel index or -1. Shown as a bubble with the result.
//
//go:noinline
func (b *Bundle) TrySelect() (int, error) {
	op, loc := "PI_TrySelect", callerLoc(1)
	r := b.r
	if err := r.requirePhase(op, loc, phaseRunning); err != nil {
		return -1, err
	}
	if err := b.requireUsage(op, loc, UsageSelect); err != nil {
		return -1, err
	}
	idx, err := b.sweep()
	if err != nil {
		return -1, errorf(op, loc, "%v", err)
	}
	if log := r.logger(b.endpoint.rank); log.Enabled() {
		var cb mpe.Cargo
		log.EventBytes(r.events["PI_TrySelect"], cb.KV("bund", b.Name()).
			Str(" ready: ").Int(idx).KV("line", loc).Bytes())
	}
	if r.nativeOn() {
		r.nativeLog(b.endpoint.rank, fmt.Sprintf("%s PI_TrySelect bundle %s -> %d %s",
			b.endpoint.Name(), b.Name(), idx, loc))
	}
	return idx, nil
}

// sweep checks each channel once, returning the first ready index or -1.
func (b *Bundle) sweep() (int, error) {
	rank := b.r.world.Rank(b.endpoint.rank)
	for i, c := range b.chans {
		_, ok, err := rank.Iprobe(c.from.rank, c.id)
		if err != nil {
			return -1, err
		}
		if ok {
			return i, nil
		}
	}
	return -1, nil
}

// pollReady loops sweep until a channel is ready, announcing an any-of
// wait to the deadlock detector after the first empty pass.
func (b *Bundle) pollReady(op, loc string, block bool) (int, error) {
	idx, err := b.sweep()
	if err != nil || idx >= 0 || !block {
		if err != nil {
			return -1, errorf(op, loc, "%v", err)
		}
		return idx, nil
	}
	if b.r.detectorOn() {
		peers := make([]int, len(b.chans))
		for i, c := range b.chans {
			peers[i] = c.from.rank
		}
		b.r.svcWait(b.endpoint.rank, op, peers, true, loc)
		defer b.r.svcDone(b.endpoint.rank)
	}
	for {
		idx, err := b.sweep()
		if err != nil {
			return -1, errorf(op, loc, "%v", err)
		}
		if idx >= 0 {
			return idx, nil
		}
		time.Sleep(20 * time.Microsecond)
	}
}
