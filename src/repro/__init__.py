"""repro — reproduction of "Performance Considerations for an Embedded
Implementation of OMA DRM 2" (Thull & Sannino, DATE 2005).

The package implements:

* :mod:`repro.crypto` — the mandated cryptographic algorithms (AES,
  SHA-1 and HMAC-SHA1 on the stdlib's ``hashlib``/``hmac``, AES Key
  Wrap, KDF2, RSA with PSS, the Figure 3 KEM),
* :mod:`repro.drm` — the OMA DRM 2 system model (CA/OCSP PKI, DCF,
  Rights Objects, REL, ROAP, DRM Agent, Rights Issuer, Content Issuer,
  domains),
* :mod:`repro.core` — the paper's contribution: the Table 1 cycle-cost
  model, SW/SW-HW/HW architecture profiles, operation metering and trace
  pricing, plus energy models,
* :mod:`repro.usecases` — the Music Player and Ringtone evaluation
  workloads with functional and modeled execution paths,
* :mod:`repro.analysis` — regeneration of every table and figure.

Quickstart::

    from repro.analysis import figure6, figure7
    print(figure6.generate().render())
    print(figure7.generate().render())
"""

__version__ = "1.0.0"

from . import analysis, core, crypto, drm, usecases

__all__ = ["analysis", "core", "crypto", "drm", "usecases",
           "__version__"]
