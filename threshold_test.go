package encmpi_test

import (
	"fmt"
	"testing"

	"encmpi"
)

// TestWithEagerThresholdBoundary pins the protocol cutover the
// WithEagerThreshold option controls, at the exact boundary: a message of
// threshold−1 bytes travels eagerly (one wire message, from the sender
// only), and messages of threshold and threshold+1 bytes go through the
// RTS/CTS/DATA rendezvous handshake (two wire messages from the sender, one
// — the CTS — from the receiver). The transport message counts distinguish
// the two paths unambiguously, and the payload must arrive intact either
// way. Run over both real transports so the TCP wire engine's batched path
// is covered, not just the in-process one.
func TestWithEagerThresholdBoundary(t *testing.T) {
	const threshold = 2 << 10
	launchers := []struct {
		name string
		run  func(n int, body func(*encmpi.Comm), opts ...encmpi.Option) error
	}{
		{"shm", encmpi.RunShm},
		{"tcp", encmpi.RunTCP},
	}
	cases := []struct {
		size int
		// senderMsgs/receiverMsgs are the wire messages each side must emit:
		// eager 1/0, rendezvous (RTS+DATA)/(CTS) = 2/1.
		senderMsgs, receiverMsgs uint64
	}{
		{threshold - 1, 1, 0},
		{threshold, 2, 1},
		{threshold + 1, 2, 1},
	}
	for _, l := range launchers {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/size%d", l.name, tc.size), func(t *testing.T) {
				payload := make([]byte, tc.size)
				for i := range payload {
					payload[i] = byte(i * 31)
				}
				reg := encmpi.NewRegistry(2)
				err := l.run(2, func(c *encmpi.Comm) {
					switch c.Rank() {
					case 0:
						if err := c.Send(1, 5, encmpi.Bytes(payload)); err != nil {
							t.Error(err)
						}
					case 1:
						got, _ := c.Recv(0, 5)
						defer got.Release()
						if got.Len() != tc.size {
							t.Errorf("recv len = %d, want %d", got.Len(), tc.size)
							return
						}
						for i, b := range got.Data {
							if b != byte(i*31) {
								t.Errorf("payload corrupt at byte %d", i)
								return
							}
						}
					}
				}, encmpi.WithEagerThreshold(threshold), encmpi.WithMetrics(reg))
				if err != nil {
					t.Fatal(err)
				}
				snap := reg.Snapshot()
				if got := snap.Ranks[0].Transport.MsgsSent; got != tc.senderMsgs {
					t.Errorf("sender wire messages = %d, want %d (wrong protocol path for %d bytes at threshold %d)",
						got, tc.senderMsgs, tc.size, threshold)
				}
				if got := snap.Ranks[1].Transport.MsgsSent; got != tc.receiverMsgs {
					t.Errorf("receiver wire messages = %d, want %d", got, tc.receiverMsgs)
				}
			})
		}
	}
}

// TestWireBatchingToggle pins the facade's TCP wire over the metrics:
// traffic through RunTCP arrives intact and every frame is written by the
// batched wire engine, so the registry records its flushes. Batching is the
// only TCP write path, so batched=true is the one case.
func TestWireBatchingToggle(t *testing.T) {
	t.Run("batched=true", func(t *testing.T) {
		reg := encmpi.NewRegistry(2)
		err := encmpi.RunTCP(2, func(c *encmpi.Comm) {
			const rounds = 16
			switch c.Rank() {
			case 0:
				for i := 0; i < rounds; i++ {
					if err := c.Send(1, i, encmpi.Bytes([]byte("batch probe"))); err != nil {
						t.Error(err)
						return
					}
				}
			case 1:
				for i := 0; i < rounds; i++ {
					buf, _ := c.Recv(0, i)
					if string(buf.Data) != "batch probe" {
						t.Errorf("round %d: %q", i, buf.Data)
					}
					buf.Release()
				}
			}
		}, encmpi.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		if wire := reg.Snapshot().Wire; wire.Flushes == 0 || wire.Frames < 16 {
			t.Fatalf("wire engine recorded %d flushes / %d frames, want > 0 / ≥ 16", wire.Flushes, wire.Frames)
		}
	})
}
