package main

import (
	"bytes"
	"log"
	"os"
	"strings"
	"testing"

	"dcstream/internal/center"
	"dcstream/internal/transport"
)

// TestSlideQuiescenceSkipsClosedSpans drives the window-tick close policy of
// a -slide 3 daemon: epochs arrive in order, then the fleet goes quiet. Every
// span must be analyzed exactly once. The newest epochs stay buffered as
// context for spans ahead, and quiescence keeps visiting them; since a newer
// span already closed theirs, they must be skipped silently rather than
// logged as analysis failures on every tick.
func TestSlideQuiescenceSkipsClosedSpans(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	c := center.New(center.Config{WindowSlide: 3, MaxEpochs: 8})
	q := newQuiescence(2)
	const epochs, routers = 6, 4
	for e := 1; e <= epochs; e++ {
		for r := 0; r < routers; r++ {
			c.Ingest(transport.AlignedDigest{RouterID: r, Epoch: e, Bitmap: testBitmap(uint64(e*routers + r))})
		}
		q.tick(c, nil, nil, nil)
	}
	for i := 0; i < 4; i++ {
		q.tick(c, nil, nil, nil)
	}

	out := buf.String()
	if strings.Contains(out, "no such epoch window") || strings.Contains(out, "analysis:") {
		t.Fatalf("quiescence logged analysis errors:\n%s", out)
	}
	if got := c.Stats().Snapshot().EpochsAnalyzed; got != epochs {
		t.Errorf("analyzed %d spans, want %d\n%s", got, epochs, out)
	}
}
