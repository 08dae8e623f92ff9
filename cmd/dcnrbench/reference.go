package main

// Open-loop query rates in requests per second. Each is well below the
// closed-loop capacity this benchmark measured when it was written (2
// CPUs, go1.24: about 46k, 3.5k and 35k queries/s): on such a host the open
// loop's two senders, which pay a thread wake-up per request, fall behind
// at higher rates, and query-ingest queues behind the misses every ingest
// causes. The rates stay fixed, so latency is always measured at the same
// offered load and compares across commits.
const (
	hotRate    = 5000
	coldRate   = 1000
	ingestRate = 2000
)

// Reference digests at defaultSeed and the default sizes: of the
// campaign's sweep report, and of the figures workload's artifacts, whose
// datasets also reproduce all 19 of the paper's claims there. A change
// that alters either output fails the benchmark's checks.
const (
	campaignDigest = "7ce4461f6d014a4a443173c240e33590fcbb5565bdc5221f03ee09ef5d77f444"
	figuresDigest  = "d15bf5988f74e9ef5142859fba74aa92cfb15938225c1430a1e000dd2e17f5e1"
)
