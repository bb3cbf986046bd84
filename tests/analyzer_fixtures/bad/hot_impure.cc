// Analyzer fixture — NOT compiled.  Seeded hot-path purity violations: a
// DIDO_HOT kernel that locks, allocates, and (transitively, through a
// CamelCase helper the call-graph walk must follow) blocks.

void SpinBackoff() {
  std::this_thread::sleep_for(  // expect: [hot] blocking wait (transitive)
      std::chrono::milliseconds(1));
}

void RunHotKernel(int v) DIDO_HOT;

void RunHotKernel(int v) {
  std::lock_guard<std::mutex> lock(g_mu);  // expect: [hot] mutex acquisition
  g_log.push_back(v);                      // expect: [hot] heap allocation
  g_log_ptr->resize(v);                    // expect: [hot] (through ->)
  SpinBackoff();
}
