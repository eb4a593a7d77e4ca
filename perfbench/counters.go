package main

import "encmpi"

// counters is the slice of a metrics snapshot the per-layer metrics read,
// in a form that subtracts: a timed window's counters are the snapshot after
// it minus the snapshot before it.
type counters struct {
	seals, opens, sealsInPlace, sealsInterNode uint64
	sealNs, openNs                             int64
	authFailures                               uint64

	chunks                   uint64
	sealOverlap, openOverlap int64
	maxInFlight              int64

	waitNs                      int64
	waitHist                    map[int]uint64
	msgs, bytes, strays         uint64
	slotDirect                  uint64
	ringAcquired, ringFallbacks uint64

	flushes, inlineFlushes, frames, writeErrors uint64

	hearNs    int64
	hearElems uint64
}

// countersOf extracts the world totals of a snapshot. Session-layer
// rejections count as authentication failures alongside the engines' own.
func countersOf(s encmpi.MetricsSnapshot) counters {
	t := s.Total
	c := counters{
		seals:          t.Crypto.Seals,
		opens:          t.Crypto.Opens,
		sealsInPlace:   t.Crypto.SealsInPlace,
		sealsInterNode: t.Crypto.SealsInterNode,
		sealNs:         t.Crypto.SealNanos,
		openNs:         t.Crypto.OpenNanos,
		authFailures:   t.Crypto.AuthFailures,
		chunks:         t.Pipeline.ChunksSent,
		sealOverlap:    t.Pipeline.SealOverlapNanos,
		openOverlap:    t.Pipeline.OpenOverlapNanos,
		maxInFlight:    t.Pipeline.MaxInFlight,
		waitNs:         t.WaitNanos,
		waitHist:       map[int]uint64{},
		msgs:           t.Transport.MsgsSent,
		bytes:          t.Transport.BytesSent,
		strays:         t.Strays + s.UnattributedStrays,
		slotDirect:     t.Transport.SlotDirectEager,
		ringAcquired:   s.Ring.Acquired,
		ringFallbacks:  s.Ring.Fallbacks,
		flushes:        s.Wire.Flushes,
		inlineFlushes:  s.Wire.InlineFlushes,
		frames:         s.Wire.Frames,
		writeErrors:    s.Wire.WriteErrors,
		hearNs:         t.Crypto.HearNanos,
		hearElems:      t.Crypto.HearKeystreamElems,
	}
	for b, n := range t.WaitLatency.Buckets {
		c.waitHist[b] = n
	}
	for _, ss := range s.Sessions {
		c.authFailures += ss.AuthFailures
	}
	return c
}

// sub returns c − o. The in-flight high-water mark is a gauge and keeps c's
// value.
func (c counters) sub(o counters) counters {
	d := c
	d.seals -= o.seals
	d.opens -= o.opens
	d.sealsInPlace -= o.sealsInPlace
	d.sealsInterNode -= o.sealsInterNode
	d.sealNs -= o.sealNs
	d.openNs -= o.openNs
	d.authFailures -= o.authFailures
	d.chunks -= o.chunks
	d.sealOverlap -= o.sealOverlap
	d.openOverlap -= o.openOverlap
	d.waitNs -= o.waitNs
	d.msgs -= o.msgs
	d.bytes -= o.bytes
	d.strays -= o.strays
	d.slotDirect -= o.slotDirect
	d.ringAcquired -= o.ringAcquired
	d.ringFallbacks -= o.ringFallbacks
	d.flushes -= o.flushes
	d.inlineFlushes -= o.inlineFlushes
	d.frames -= o.frames
	d.writeErrors -= o.writeErrors
	d.hearNs -= o.hearNs
	d.hearElems -= o.hearElems
	d.waitHist = map[int]uint64{}
	for b, n := range c.waitHist {
		if n > o.waitHist[b] {
			d.waitHist[b] = n - o.waitHist[b]
		}
	}
	return d
}

// add accumulates o into c (gauges take the max).
func (c *counters) add(o counters) {
	c.seals += o.seals
	c.opens += o.opens
	c.sealsInPlace += o.sealsInPlace
	c.sealsInterNode += o.sealsInterNode
	c.sealNs += o.sealNs
	c.openNs += o.openNs
	c.authFailures += o.authFailures
	c.chunks += o.chunks
	c.sealOverlap += o.sealOverlap
	c.openOverlap += o.openOverlap
	if o.maxInFlight > c.maxInFlight {
		c.maxInFlight = o.maxInFlight
	}
	c.waitNs += o.waitNs
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.strays += o.strays
	c.slotDirect += o.slotDirect
	c.ringAcquired += o.ringAcquired
	c.ringFallbacks += o.ringFallbacks
	c.flushes += o.flushes
	c.inlineFlushes += o.inlineFlushes
	c.frames += o.frames
	c.writeErrors += o.writeErrors
	c.hearNs += o.hearNs
	c.hearElems += o.hearElems
	if c.waitHist == nil {
		c.waitHist = map[int]uint64{}
	}
	for b, n := range o.waitHist {
		c.waitHist[b] += n
	}
}
