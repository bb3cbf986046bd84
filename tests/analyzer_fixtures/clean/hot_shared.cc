// Analyzer fixture — NOT compiled.  Clean twin of bad/hot_shared.cc: the
// kernel counts into a caller-owned tally, and its one protocol RMW carries
// a reasoned allow comment.

struct ProbeTally {
  int probes = 0;
};

void ProbeKernel(int n, ProbeTally* tally) DIDO_HOT;

void ProbeKernel(int n, ProbeTally* tally) {
  for (int i = 0; i < n; ++i) tally->probes += 1;
  int expected = 0;
  // dido-analyze: allow(hot): the slot CAS publishes the entry; it is the
  // protocol, not a statistic.
  g_slot.compare_exchange_strong(expected, n);
}
