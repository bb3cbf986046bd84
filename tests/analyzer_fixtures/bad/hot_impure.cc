// Analyzer fixture — NOT compiled.  Seeded hot-path purity violations: a
// DIDO_HOT kernel that locks, allocates, and (transitively, through a
// CamelCase helper and a function template) blocks and allocates.

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
  ForEachItem(v, [](int) {});
}

template <typename Hook>
void ForEachItem(int n, Hook&& hook) {
  g_items.reserve(n);  // expect: [hot] heap allocation (template)
  for (int i = 0; i < n; ++i) hook(i);
}
