package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"encmpi"
)

// stream_tcp: the OSU bandwidth shape over loopback TCP. Rank 0 streams
// windows of 1 MiB encrypted messages to rank 1, which acks each window
// with 8 bytes. Each message is one op. Every message carries its index in
// its first 8 bytes (bit 63 marks the final window) and a seeded body that
// rank 1 compares with its own copy.
const (
	streamRanks  = 2
	streamWindow = 4
	streamTag    = 11
	streamAckTag = 12
	finalBit     = uint64(1) << 63
)

// streamPayloads builds one seeded message body per window slot. Each rank
// builds its own copy, so the check never compares a buffer with itself.
func streamPayloads(seed int64, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x57ea))
	out := make([][]byte, streamWindow)
	for k := range out {
		out[k] = make([]byte, size)
		rng.Read(out[k])
	}
	return out
}

func runStream(cfg config, ph *phase) error {
	size := 1 << 20
	if cfg.tiny {
		size = 320 << 10 // still above the 256 KiB chunking threshold
	}
	key := seedKey(cfg.seed)
	for j := 0; j < cfg.jobs; j++ {
		var recvFailed int64
		var recvNotes []string
		launched := time.Now()
		err := encmpi.RunTCP(streamRanks, func(c *encmpi.Comm) {
			var tr *tracer
			if c.Rank() == 0 {
				tr = ph.tr
				tr.record("job.launch", launched, time.Now())
			}
			t0 := time.Now()
			sess, err := encmpi.NewSession(key)
			if err != nil {
				panic(err) // the key is always 32 bytes
			}
			e, err := sess.Attach(c)
			if err != nil {
				panic(err) // a fresh session attaches once
			}
			pays := streamPayloads(cfg.seed, size)
			if c.Rank() == 0 {
				tr.record("session.attach", t0, time.Now())
				streamSend(e, sess, ph, tr, pays, launched)
				return
			}
			recvFailed, recvNotes = streamRecv(e, pays)
		}, ph.launchOpts()...)
		if err != nil {
			return fmt.Errorf("stream_tcp job: %w", err)
		}
		// Rank 1's checks cover the same messages rank 0 attempted; its
		// failures add to rank 0's, capped at the attempted count.
		for _, n := range recvNotes {
			ph.fail(0, "%s", n)
		}
		ph.failed += recvFailed
		if ph.failed > ph.attempted {
			ph.failed = ph.attempted
		}
	}
	ph.payload = ph.ops * int64(size)
	ph.checkRegistry()
	return nil
}

// streamSend is rank 0's closed loop: one untimed warm-up window, timed
// windows until the launch's window closes, then an untimed final window.
func streamSend(e *encmpi.EncryptedComm, sess *encmpi.Session, ph *phase, tr *tracer, pays [][]byte, launched time.Time) {
	timer := &opTimer{ph: ph, launched: launched}
	reqs := make([]*encmpi.EncryptedRequest, streamWindow)
	var next uint64
	window := func(final, timed bool) {
		var t0 time.Time
		op := int64(-1)
		if timed {
			t0 = timer.start()
			op = ph.ops
		}
		w := tr.begin("stream.window", -1, op)
		for k := range reqs {
			hdr := next
			if final && k == streamWindow-1 {
				hdr |= finalBit
			}
			next++
			binary.LittleEndian.PutUint64(pays[k][:8], hdr)
			sp := tr.begin("mpi.send", w, op)
			reqs[k] = e.Isend(1, streamTag, encmpi.Bytes(pays[k]))
			tr.end(sp)
		}
		sp := tr.begin("mpi.wait", w, op)
		err := e.Waitall(reqs)
		ack, _, aerr := e.Recv(1, streamAckTag)
		tr.end(sp)
		tr.end(w)
		if timed {
			timer.stop(t0, streamWindow)
		}
		ph.attempted += streamWindow
		switch {
		case err != nil:
			ph.fail(streamWindow, "stream_tcp: send window: %v", err)
		case aerr != nil:
			ph.fail(streamWindow, "stream_tcp: ack: %v", aerr)
		case ack.Len() != 8 || binary.LittleEndian.Uint64(ack.Data) != next:
			ph.fail(streamWindow, "stream_tcp: ack of %d bytes does not confirm message %d", ack.Len(), next)
		}
		ack.Release()
	}
	window(false, false)
	deriv := sess.Derivations()
	ph.beginTimed()
	for deadline := time.Now().Add(ph.window()); ; {
		window(false, true)
		if !time.Now().Before(deadline) {
			break
		}
	}
	ph.endTimed()
	ph.addLayer("session.derivations", float64(sess.Derivations()-deriv))
	ph.rankNs = float64(ph.busy.Nanoseconds()) * streamRanks
	window(true, false)
}

// streamRecv is rank 1's loop: receive a window, ack it, then check every
// message against the expected index and seeded body. It returns how many
// messages failed.
func streamRecv(e *encmpi.EncryptedComm, pays [][]byte) (failed int64, notes []string) {
	reqs := make([]*encmpi.EncryptedRequest, streamWindow)
	bufs := make([]encmpi.Buffer, streamWindow)
	errs := make([]error, streamWindow)
	var next uint64
	var ackBuf [8]byte
	for final := false; !final; {
		for k := range reqs {
			reqs[k] = e.Irecv(0, streamTag)
		}
		for k := range reqs {
			bufs[k], _, errs[k] = e.Wait(reqs[k])
		}
		binary.LittleEndian.PutUint64(ackBuf[:], next+streamWindow)
		ackErr := e.Send(0, streamAckTag, encmpi.Bytes(ackBuf[:]))
		for k := range reqs {
			b := bufs[k]
			bad := ""
			switch {
			case errs[k] != nil:
				bad = errs[k].Error()
			case ackErr != nil:
				bad = "ack: " + ackErr.Error()
			case b.Len() != len(pays[k]):
				bad = fmt.Sprintf("%d bytes, want %d", b.Len(), len(pays[k]))
			case binary.LittleEndian.Uint64(b.Data[:8])&^finalBit != next:
				bad = fmt.Sprintf("index %d, want %d", binary.LittleEndian.Uint64(b.Data[:8])&^finalBit, next)
			case !bytes.Equal(b.Data[8:], pays[k][8:]):
				bad = "payload differs from the seeded one"
			}
			if bad != "" {
				failed++
				if len(notes) < maxFailureNotes {
					notes = append(notes, fmt.Sprintf("stream_tcp: message %d: %s", next, bad))
				}
			}
			if errs[k] == nil && b.Len() >= 8 && binary.LittleEndian.Uint64(b.Data[:8])&finalBit != 0 {
				final = true
			}
			b.Release()
			next++
		}
	}
	return failed, notes
}
