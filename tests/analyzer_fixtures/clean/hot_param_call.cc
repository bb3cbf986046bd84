// Analyzer fixture — NOT compiled.  Clean twin of bad/hot_param_call.cc:
// the hot kernel calls Remember through a parameter whose declared type is
// KeyCount, whose Remember is pure.  EventLog::Remember shares the name and
// locks; resolving by name alone would walk into it.  The #endif right
// before KeyCount must not hide the class from the parser (metrics.h's
// Counter follows one the same way).

#if defined(FIXTURE_COUNTS_OFF)
inline constexpr bool kCounting = false;
#else
inline constexpr bool kCounting = true;
#endif
class KeyCount {
 public:
  void Remember(int key) { sum_ += key; }

 private:
  int sum_ = 0;
};

class EventLog {
 public:
  void Remember(int key);

 private:
  Mutex mu_;
  int last_ DIDO_GUARDED_BY(mu_) = 0;
};

class ParamKernel {
 public:
  void Run(KeyCount* count, int key) DIDO_HOT;
};

void EventLog::Remember(int key) {
  MutexLock lock(mu_);
  last_ = key;
}

void ParamKernel::Run(KeyCount* count, int key) { count->Remember(key); }
