// Analyzer fixture — NOT compiled.  Seeded violation behind a typed
// parameter call: the hot kernel reaches EventLog::Remember through its
// `log` parameter, and that Remember takes a mutex.  Resolving the call by
// the parameter's declared type must still walk into it.

class EventLog {
 public:
  void Remember(int key);

 private:
  Mutex mu_;
  int last_ DIDO_GUARDED_BY(mu_) = 0;
};

class ParamKernel {
 public:
  void Run(EventLog* log, int key) DIDO_HOT;
};

void EventLog::Remember(int key) {
  MutexLock lock(mu_);  // expect: [hot] mutex acquisition via log->
  last_ = key;
}

void ParamKernel::Run(EventLog* log, int key) { log->Remember(key); }
