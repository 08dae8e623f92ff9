// Command dcnrtop is a live terminal dashboard for a running dcsweep
// campaign: point it at the sweep's -status-addr and it renders campaign
// progress, per-scenario throughput, and sparklines of the campaign so far
// in place, top-style, until the campaign finishes.
//
// Usage:
//
//	dcnrtop [-addr HOST:PORT] [-interval DUR] [-width N] [-frames N]
//
// The dashboard is read-only and stdlib-only. Each frame it polls
// /campaign for the snapshot (progress grid, per-run start and elapsed
// times, resource attribution, straggler flags) and draws everything from
// it. The sparklines — runs done, failed and running, and the done runs'
// faults and incidents — are evaluated from the runs' start and end times
// over the whole campaign, so a dashboard attached mid-campaign draws what
// came before it.
//
// -interval sets the poll-and-redraw cadence (default 1s). -frames, when
// positive, exits after that many frames — useful for scripting and
// capturing a single snapshot (-frames 1). Otherwise dcnrtop exits when
// every run has finished, or on interrupt.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"dcnr"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "dcsweep -status-addr to watch")
		interval = flag.Duration("interval", time.Second, "poll and redraw cadence")
		width    = flag.Int("width", 80, "render width in columns")
		frames   = flag.Int("frames", 0, "exit after N frames (0 = until the campaign finishes)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := watch(ctx, os.Stdout, "http://"+*addr, *interval, *width, *frames); err != nil &&
		!errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dcnrtop:", err)
		os.Exit(1)
	}
}

// ANSI control fragments: redraw in place rather than scroll, and keep the
// cursor out of the way while the dashboard owns the terminal.
const (
	ansiClearHome  = "\x1b[H\x1b[2J"
	ansiHideCursor = "\x1b[?25l"
	ansiShowCursor = "\x1b[?25h"
)

// watch runs the poll-render loop against base until the campaign
// finishes, maxFrames frames have rendered, or ctx is canceled.
func watch(ctx context.Context, w io.Writer, base string, interval time.Duration, width, maxFrames int) error {
	client := &http.Client{Timeout: 5 * time.Second}

	if _, err := io.WriteString(w, ansiHideCursor); err != nil {
		return err
	}
	// The restore error is consciously dropped: a terminal that cannot
	// take the escape sequence anymore has nothing left to un-hide.
	defer func() { _, _ = io.WriteString(w, ansiShowCursor) }()

	for frame := 1; ; frame++ {
		cs, err := fetchCampaign(ctx, client, base+"/campaign")
		if err != nil {
			// After a first successful frame, the server disappearing is the
			// normal end of a watch: dcsweep tears the status listener down
			// when the campaign finishes, and the final run can complete
			// between two polls. Before any frame it is a real error (wrong
			// address, nothing listening).
			if frame > 1 && ctx.Err() == nil {
				_, _ = fmt.Fprintf(w, "\nstatus server at %s gone — campaign finished or server stopped\n", base)
				return nil
			}
			return err
		}
		out := ansiClearHome + renderFrame(cs, width)
		if _, err := io.WriteString(w, out); err != nil {
			return err
		}
		if maxFrames > 0 && frame >= maxFrames {
			return nil
		}
		if cs.Total > 0 && cs.Completed+cs.Failed == cs.Total {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
}

// fetchCampaign GETs and decodes one campaign snapshot.
func fetchCampaign(ctx context.Context, client *http.Client, url string) (dcnr.SweepCampaignStatus, error) {
	var cs dcnr.SweepCampaignStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return cs, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return cs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cs, fmt.Errorf("GET %s: status %s", url, strings.TrimSpace(resp.Status))
	}
	if cs, err = decodeCampaign(resp.Body); err != nil {
		return cs, fmt.Errorf("GET %s: decoding snapshot: %w", url, err)
	}
	return cs, nil
}

// decodeCampaign decodes one /campaign body.
func decodeCampaign(r io.Reader) (dcnr.SweepCampaignStatus, error) {
	var cs dcnr.SweepCampaignStatus
	err := json.NewDecoder(r).Decode(&cs)
	return cs, err
}
