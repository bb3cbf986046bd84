// Analyzer fixture — NOT compiled.  Seeded shared-counter violation: a
// DIDO_HOT kernel that counts every probe on one atomic all threads bump.

void ProbeKernel(int n) DIDO_HOT;

void ProbeKernel(int n) {
  for (int i = 0; i < n; ++i) {
    g_probes.fetch_add(1);  // expect: [hot] atomic read-modify-write
  }
}
