// Wall-clock reads nested in log/slog call arguments are exempt without a
// directive: every log record carries its own wall timestamp, so a time
// read feeding a log attribute is telemetry by construction.
package good

import (
	"log/slog"
	"time"

	"dcnr/internal/des"
)

// LogHandlerCost logs a handler's wall-clock cost; the time.Since inside
// the slog call needs no //lint:allow.
func LogHandlerCost(l *slog.Logger, sim *des.Simulator, h des.Handler) {
	start := time.Now() //lint:allow simdeterminism wall-clock telemetry
	h(sim.Now(), 0)
	l.Info("handler done", "sim_hours", sim.Now(), "wall_ms", time.Since(start).Milliseconds())
}
